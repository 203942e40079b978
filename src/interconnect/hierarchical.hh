/**
 * @file
 * Hierarchical fabric of Fig. 1: a ring of chiplets inside each GPU and an
 * NVSwitch-like crossbar joining the GPUs. An inter-GPU transfer rides the
 * source GPU's ring to its switch port, crosses the switch, then rides the
 * destination GPU's ring to the home chiplet.
 */

#ifndef LADM_INTERCONNECT_HIERARCHICAL_HH
#define LADM_INTERCONNECT_HIERARCHICAL_HH

#include <vector>

#include "interconnect/link.hh"
#include "interconnect/network.hh"
#include "interconnect/ring.hh"

namespace ladm
{

class HierarchicalNet : public Network
{
  public:
    explicit HierarchicalNet(const SystemConfig &cfg);

    void registerStats(telemetry::StatRegistry &reg,
                       std::function<Cycles()> now = {}) const override;
    void reset() override;
    void resetStats() override;
    void io(serial::Writer &ar) override;
    void io(serial::Reader &ar) override;
    void io(serial::Hasher &ar) override;

    /** Bytes that crossed the inter-GPU switch (for traffic reports). */
    Bytes switchBytes() const;

  protected:
    Cycles delayImpl(Cycles now, NodeId src, NodeId dst,
                     Bytes bytes) override;

  private:
    template <class Ar> void fields(Ar &ar);

    std::vector<RingFabric> rings_;  // one per GPU
    std::vector<Link> gpuEgress_;
    std::vector<Link> gpuIngress_;
    Cycles switchLatency_;
    /** Chiplet index hosting the GPU's switch port. */
    static constexpr int kPortChiplet = 0;
};

} // namespace ladm

#endif // LADM_INTERCONNECT_HIERARCHICAL_HH
