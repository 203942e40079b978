/**
 * @file
 * Bi-directional ring fabric for MCM-GPU packages.
 *
 * Each direction has one bandwidth server per segment (node i -> i+1 or
 * i -> i-1); a transfer takes the shorter direction and occupies every
 * segment on its path in sequence, paying the hop latency per segment.
 * Per-direction segment bandwidth is half the quoted per-GPU ring figure.
 */

#ifndef LADM_INTERCONNECT_RING_HH
#define LADM_INTERCONNECT_RING_HH

#include <vector>

#include "interconnect/link.hh"
#include "interconnect/network.hh"

namespace ladm
{

/**
 * Standalone ring over an arbitrary contiguous node group; reused by the
 * hierarchical fabric for each GPU's chiplet ring.
 */
class RingFabric
{
  public:
    /**
     * @param num_nodes ring size
     * @param seg_bytes_per_cycle per-direction segment bandwidth
     * @param hop_latency per-segment latency
     */
    RingFabric(int num_nodes, double seg_bytes_per_cycle,
               Cycles hop_latency, const std::string &name);

    /** Traversal delay between local indices [0, numNodes); every
     *  segment is booked at @p now. */
    Cycles routeDelay(Cycles now, int src, int dst, Bytes bytes);

    /** Publish per-segment byte/busy/utilization stats under @p prefix. */
    void registerStats(telemetry::StatRegistry &reg,
                       const std::string &prefix,
                       const std::function<Cycles()> &now = {}) const;

    void reset();
    /** Clear per-segment byte counters, keeping segment timing state. */
    void resetStats();

    /** Checkpoint every segment server (snapshot/component_state.cc). */
    template <class Ar> void io(Ar &ar);

  private:
    int n_;
    Cycles hopLatency_;
    std::vector<Link> cw_;  // segment i: node i -> i+1 (mod n)
    std::vector<Link> ccw_; // segment i: node i -> i-1 (mod n)
};

/** Flat ring topology across all nodes. */
class RingNet : public Network
{
  public:
    explicit RingNet(const SystemConfig &cfg);

    void registerStats(telemetry::StatRegistry &reg,
                       std::function<Cycles()> now = {}) const override;
    void reset() override;
    void resetStats() override;
    void io(serial::Writer &ar) override;
    void io(serial::Reader &ar) override;
    void io(serial::Hasher &ar) override;

  protected:
    Cycles delayImpl(Cycles now, NodeId src, NodeId dst,
                     Bytes bytes) override;

  private:
    template <class Ar> void fields(Ar &ar);

    RingFabric ring_;
};

} // namespace ladm

#endif // LADM_INTERCONNECT_RING_HH
