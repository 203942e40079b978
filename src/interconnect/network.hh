/**
 * @file
 * Network: the inter-node fabric joining NUMA nodes (chiplets), as one
 * precomputed route table.
 *
 * Three topologies share it: a flat crossbar (NVSwitch-like multi-GPU;
 * each node owns one switch egress and one ingress port), a flat ring
 * (MCM-GPU package) and the hierarchical fabric of Fig. 1 (a ring of
 * chiplets inside each GPU, a switch joining the GPUs through a port on
 * chiplet 0). A monolithic system has a single node and never routes.
 *
 * Ring segments run in both directions; each direction of a segment is
 * one link with half the quoted per-GPU ring bandwidth, and a transfer
 * takes the shorter direction (clockwise on a tie), paying the hop
 * latency per segment. Links are laid out once, in this order:
 *
 *   rings:   for each ring r, cw0..cw(n-1) then ccw0..ccw(n-1)
 *            (segment i of cw joins i -> i+1, of ccw joins i -> i-1)
 *   egress:  one switch egress port per GPU (per node on a crossbar)
 *   ingress: one switch ingress port per GPU (per node on a crossbar)
 *
 * Every (src, dst) pair gets a route at construction: its fixed latency
 * (ring hops x hop latency, plus the switch latency when it crosses the
 * switch) and its legs. A leg is one fault domain -- a GPU's ring (the
 * flat ring is ring 0) or a GPU pair's switch link -- and the run of
 * links the route books in it. A cross-GPU hierarchical route has three
 * legs: source ring to the port, switch, destination ring from the
 * port; either ring leg may hold no link.
 *
 * All byte accounting for the paper's off-chip-traffic results lives here:
 * interNodeBytes counts every chiplet-boundary crossing, interGpuBytes the
 * subset that also crosses a GPU boundary.
 */

#ifndef LADM_INTERCONNECT_NETWORK_HH
#define LADM_INTERCONNECT_NETWORK_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "check/fault_plan.hh"
#include "common/types.hh"
#include "config/system_config.hh"
#include "interconnect/link.hh"
#include "telemetry/trace.hh"

namespace ladm
{

namespace telemetry
{
class StatRegistry;
}

class Network
{
  public:
    /** @throws SimError when cfg.faultSpec does not parse. */
    explicit Network(const SystemConfig &cfg);

    // Routes hold pointers into links_.
    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

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
        const Route &r = routes_[static_cast<size_t>(src) * nodes_ + dst];
        interNodeBytes_ += bytes;
        if (r.crossesGpu)
            interGpuBytes_ += bytes;
        Cycles delay = r.latency;
        if (faulted_) {
            delay += bookFaulted(now, r, bytes);
        } else {
            for (Link *const *l = hops_.data() + r.firstHop,
                             *const *end = hops_.data() + r.endHop;
                 l != end; ++l)
                delay += (*l)->book(now, bytes);
        }
        if (tr_.enabled() && tr_.sampleTick())
            traceTransfer(tr_, now, delay, src, dst, bytes);
        return delay;
    }

    Bytes interNodeBytes() const { return interNodeBytes_; }
    Bytes interGpuBytes() const { return interGpuBytes_; }
    /** Bytes that entered the switch: the sum over the egress ports. */
    Bytes switchBytes() const;

    /**
     * The smallest fixed latency of any cross-node route: the
     * conservative-PDES lookahead. An event issued at cycle t cannot
     * affect another node before t + this, so shards may run a window
     * of that width without synchronizing. 0 with a single node.
     */
    Cycles minRouteLatency() const { return minRouteLatency_; }

    /** The active fault-injection plan (empty when cfg.faultSpec is). */
    const check::FaultPlan &faultPlan() const { return plan_; }
    /** Transfers that insisted on crossing a severed link. */
    uint64_t severedCrossings() const { return severedCrossings_; }

    /**
     * Publish fabric statistics into @p reg under "net": the
     * boundary-crossing byte totals, per-link byte/busy counters and,
     * when @p now is provided, link-utilization formulas (busy cycles /
     * elapsed cycles).
     */
    void registerStats(telemetry::StatRegistry &reg,
                       std::function<Cycles()> now = {}) const;

    void reset();

    /**
     * Clear byte accounting (boundary-crossing totals and per-link
     * counters) while preserving every link's timing state — the
     * measurement-window counterpart of reset(); see
     * BandwidthServer::resetStats().
     */
    void resetStats();

    /** Checkpoint the byte accounting and every link
     *  (snapshot/component_state.cc). */
    template <class Ar> void io(Ar &ar);

  private:
    /** A fault domain and the links a route books in it. */
    struct Leg
    {
        bool ring;      ///< ring @p a, else the GPU pair (a, b)
        GpuId a, b;
        uint32_t endHop; ///< the leg's links end here in hops_
    };

    struct Route
    {
        Cycles latency = 0;
        uint32_t firstHop = 0, endHop = 0;
        uint32_t firstLeg = 0, endLeg = 0;
        bool crossesGpu = false;
    };

    Cycles bookFaulted(Cycles now, const Route &r, Bytes bytes);

    /**
     * Apply a fault-plan bandwidth factor to a transfer: a link serving
     * fraction f of its lanes takes 1/f as long, i.e. behaves as if the
     * payload were bytes/f. Severed (f == 0) clamps to
     * check::kSeveredResidualFactor and counts the crossing, keeping the
     * fault-oblivious ablation finite instead of dividing by zero.
     */
    Bytes faultScaled(Bytes bytes, double factor);

    void traceTransfer(telemetry::TraceEmitter &tr, Cycles now,
                       Cycles delay, NodeId src, NodeId dst, Bytes bytes);

    const check::FaultPlan plan_;
    /** Process-wide trace emitter, fetched once instead of per call. */
    telemetry::TraceEmitter &tr_;
    const bool faulted_;
    const bool hasSwitchStat_;
    size_t nodes_ = 0;
    std::vector<Link> links_;
    /** links_ index of the first egress port and of the first ingress
     *  port (egress ports fill [egress_, ingress_)). */
    size_t egress_ = 0, ingress_ = 0;
    std::vector<Route> routes_; ///< nodes_ x nodes_, row = source
    std::vector<Leg> legs_;
    std::vector<Link *> hops_;
    Cycles minRouteLatency_ = 0;
    Bytes interNodeBytes_ = 0;
    Bytes interGpuBytes_ = 0;
    uint64_t severedCrossings_ = 0;
};

} // namespace ladm

#endif // LADM_INTERCONNECT_NETWORK_HH
