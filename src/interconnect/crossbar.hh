/**
 * @file
 * Flat crossbar fabric: every node owns one egress and one ingress port of
 * the configured per-link bandwidth; a transfer occupies both plus the
 * switch traversal latency. Models an NVSwitch-style multi-GPU system.
 */

#ifndef LADM_INTERCONNECT_CROSSBAR_HH
#define LADM_INTERCONNECT_CROSSBAR_HH

#include <vector>

#include "interconnect/link.hh"
#include "interconnect/network.hh"

namespace ladm
{

class CrossbarNet : public Network
{
  public:
    explicit CrossbarNet(const SystemConfig &cfg);

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

    std::vector<Link> egress_;
    std::vector<Link> ingress_;
    Cycles switchLatency_;
};

} // namespace ladm

#endif // LADM_INTERCONNECT_CROSSBAR_HH
