/**
 * @file
 * Network: the abstract inter-node fabric joining NUMA nodes (chiplets).
 *
 * Concrete topologies: crossbar (NVSwitch-like flat multi-GPU), ring
 * (MCM-GPU package), and the hierarchical ring-of-chiplets +
 * switch-of-GPUs fabric of Fig. 1. A monolithic system has a single node
 * and never routes.
 *
 * All byte accounting for the paper's off-chip-traffic results lives here:
 * interNodeBytes counts every chiplet-boundary crossing, interGpuBytes the
 * subset that also crosses a GPU boundary.
 */

#ifndef LADM_INTERCONNECT_NETWORK_HH
#define LADM_INTERCONNECT_NETWORK_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/fault_plan.hh"
#include "common/types.hh"
#include "config/system_config.hh"
#include "telemetry/trace.hh"

namespace ladm
{

namespace telemetry
{
class StatRegistry;
}

namespace serial
{
class Writer;
class Reader;
class Hasher;
} // namespace serial

class Network
{
  public:
    /** @throws SimError when cfg.faultSpec does not parse. */
    explicit Network(const SystemConfig &cfg)
        : cfg_(cfg), plan_(check::FaultPlan::parse(cfg.faultSpec)),
          tr_(telemetry::tracer()), faulted_(!plan_.empty())
    {
        const int nodes = cfg_.numNodes();
        nodeGpu_.reserve(nodes);
        nodeChiplet_.reserve(nodes);
        for (NodeId n = 0; n < nodes; ++n) {
            nodeGpu_.push_back(cfg_.gpuOfNode(n));
            nodeChiplet_.push_back(cfg_.chipletOfNode(n));
        }
    }
    virtual ~Network() = default;

    /**
     * Reserve the path from @p src to @p dst for @p bytes issued at
     * @p now (every hop is booked at @p now; see the BandwidthServer
     * ordering contract).
     *
     * @return the traversal delay (0 when src == dst).
     */
    Cycles
    routeDelay(Cycles now, NodeId src, NodeId dst, Bytes bytes)
    {
        if (src == dst)
            return 0;
        interNodeBytes_ += bytes;
        if (nodeGpu_[src] != nodeGpu_[dst])
            interGpuBytes_ += bytes;
        const Cycles delay = delayImpl(now, src, dst, bytes);
        if (tr_.enabled() && tr_.sampleTick())
            traceTransfer(tr_, now, delay, src, dst, bytes);
        return delay;
    }

    Bytes interNodeBytes() const { return interNodeBytes_; }
    Bytes interGpuBytes() const { return interGpuBytes_; }

    /** The active fault-injection plan (empty when cfg.faultSpec is). */
    const check::FaultPlan &faultPlan() const { return plan_; }
    /** Transfers that insisted on crossing a severed link. */
    uint64_t severedCrossings() const { return severedCrossings_; }

    /**
     * Publish fabric statistics into @p reg under "net". The base class
     * registers the boundary-crossing byte totals; topologies add their
     * per-link byte counts and, when @p now is provided, link-utilization
     * formulas (busy cycles / elapsed cycles).
     */
    virtual void registerStats(telemetry::StatRegistry &reg,
                               std::function<Cycles()> now = {}) const;

    virtual void reset()
    {
        interNodeBytes_ = 0;
        interGpuBytes_ = 0;
    }

    /**
     * Clear byte accounting (boundary-crossing totals and per-link
     * counters) while preserving every link's timing state — the
     * measurement-window counterpart of reset(); see
     * BandwidthServer::resetStats().
     */
    virtual void resetStats()
    {
        interNodeBytes_ = 0;
        interGpuBytes_ = 0;
    }

    /**
     * Checkpoint the fabric's timing + byte accounting: one overload per
     * archive, each running the topology's fields() list. The base class
     * covers the boundary-crossing totals; topologies append their link
     * servers in a fixed order (snapshot/component_state.cc).
     */
    virtual void io(serial::Writer &ar);
    virtual void io(serial::Reader &ar);
    virtual void io(serial::Hasher &ar);

  protected:
    template <class Ar> void fields(Ar &ar);

    virtual Cycles delayImpl(Cycles now, NodeId src, NodeId dst,
                             Bytes bytes) = 0;

    bool faultsActive() const { return faulted_; }

    /**
     * Apply a fault-plan bandwidth factor to a transfer: a link serving
     * fraction f of its lanes takes 1/f as long, i.e. behaves as if the
     * payload were bytes/f. Severed (f == 0) clamps to
     * check::kSeveredResidualFactor and counts the crossing, keeping the
     * fault-oblivious ablation finite instead of dividing by zero.
     */
    Bytes
    faultScaled(Bytes bytes, double factor)
    {
        if (factor >= 1.0)
            return bytes;
        if (factor <= 0.0) {
            ++severedCrossings_;
            factor = check::kSeveredResidualFactor;
        } else if (factor < check::kSeveredResidualFactor) {
            factor = check::kSeveredResidualFactor;
        }
        return static_cast<Bytes>(static_cast<double>(bytes) / factor);
    }

    const SystemConfig cfg_;
    const check::FaultPlan plan_;
    /**
     * gpuOfNode()/chipletOfNode() hoisted into per-node tables: both are
     * integer divisions the routing hot path would otherwise pay on
     * every boundary crossing.
     */
    std::vector<GpuId> nodeGpu_;
    std::vector<ChipletId> nodeChiplet_;

  private:
    void traceTransfer(telemetry::TraceEmitter &tr, Cycles now,
                       Cycles delay, NodeId src, NodeId dst, Bytes bytes);

    /** Process-wide trace emitter, fetched once instead of per call. */
    telemetry::TraceEmitter &tr_;
    const bool faulted_;
    Bytes interNodeBytes_ = 0;
    Bytes interGpuBytes_ = 0;
    uint64_t severedCrossings_ = 0;
};

/** Build the topology named by cfg.topology. */
std::unique_ptr<Network> makeNetwork(const SystemConfig &cfg);

} // namespace ladm

#endif // LADM_INTERCONNECT_NETWORK_HH
