#include "interconnect/network.hh"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "telemetry/stat_registry.hh"

namespace ladm
{

Network::Network(const SystemConfig &cfg)
    : plan_(check::FaultPlan::parse(cfg.faultSpec)),
      faulted_(!plan_.empty()),
      hasSwitchStat_(cfg.topology == Topology::Hierarchical),
      nodes_(static_cast<size_t>(cfg.numNodes()))
{
    // The machine as rings of ringSize nodes and switch ports: a flat
    // ring is one ring over every node, a crossbar gives every node a
    // port, the hierarchical fabric one ring and one port per GPU.
    const bool hier = cfg.topology == Topology::Hierarchical;
    int rings = 0, ringSize = 0, ports = 0;
    switch (cfg.topology) {
      case Topology::Monolithic:
        break;
      case Topology::Crossbar:
        ports = cfg.numNodes();
        break;
      case Topology::Ring:
        rings = 1;
        ringSize = cfg.numNodes();
        break;
      case Topology::Hierarchical:
        rings = ports = cfg.numGpus;
        ringSize = cfg.chipletsPerGpu;
        break;
    }
    const double ring_bpc =
        cfg.bytesPerCycle(cfg.interChipletRingGBs) / 2.0;
    const double port_bpc = cfg.bytesPerCycle(cfg.interGpuLinkGBs);
    for (int r = 0; r < rings; ++r) {
        const std::string ring =
            hier ? "gpu" + std::to_string(r) + ".ring" : "ring";
        for (const char *dir : {".cw", ".ccw"})
            for (int i = 0; i < ringSize; ++i)
                links_.emplace_back(ring + dir + std::to_string(i),
                                    ring_bpc, 0);
    }
    auto addPorts = [&](const std::string &kind) {
        for (int p = 0; p < ports; ++p) {
            const std::string id = std::to_string(p);
            links_.emplace_back(hier ? "gpu" + id + "." + kind
                                     : "xbar." + kind + id,
                                port_bpc, 0);
        }
    };
    egress_ = links_.size();
    addPorts("egress");
    ingress_ = links_.size();
    addPorts("ingress");

    // The shorter direction around ring r, clockwise on a tie.
    auto ringLeg = [&](Route &rt, int r, int from, int to) {
        int fwd = to - from;
        if (fwd < 0)
            fwd += ringSize;
        const bool cw = fwd <= ringSize - fwd;
        const int hops = cw ? fwd : ringSize - fwd;
        const size_t base =
            static_cast<size_t>(r) * 2 * ringSize + (cw ? 0 : ringSize);
        for (int i = 0, seg = from; i < hops; ++i) {
            hops_.push_back(&links_[base + seg]);
            seg = (seg + (cw ? 1 : ringSize - 1)) % ringSize;
        }
        rt.latency += static_cast<Cycles>(hops) * cfg.ringHopLatencyCycles;
        legs_.push_back({true, r, r, static_cast<uint32_t>(hops_.size())});
    };
    auto switchLeg = [&](Route &rt, GpuId a, GpuId b, int in, int out) {
        hops_.push_back(&links_[egress_ + in]);
        hops_.push_back(&links_[ingress_ + out]);
        rt.latency += cfg.switchLatencyCycles;
        legs_.push_back({false, a, b, static_cast<uint32_t>(hops_.size())});
    };

    routes_.resize(nodes_ * nodes_);
    minRouteLatency_ = nodes_ > 1 ? std::numeric_limits<Cycles>::max() : 0;
    for (NodeId s = 0; s < cfg.numNodes(); ++s) {
        for (NodeId d = 0; d < cfg.numNodes(); ++d) {
            if (s == d)
                continue;
            Route &rt = routes_[static_cast<size_t>(s) * nodes_ + d];
            const GpuId sg = cfg.gpuOfNode(s), dg = cfg.gpuOfNode(d);
            const int sc = cfg.chipletOfNode(s), dc = cfg.chipletOfNode(d);
            rt.crossesGpu = sg != dg;
            rt.firstHop = static_cast<uint32_t>(hops_.size());
            rt.firstLeg = static_cast<uint32_t>(legs_.size());
            switch (cfg.topology) {
              case Topology::Monolithic:
                break;
              case Topology::Crossbar:
                switchLeg(rt, sg, dg, s, d);
                break;
              case Topology::Ring:
                ringLeg(rt, 0, s, d);
                break;
              case Topology::Hierarchical:
                if (sg == dg) {
                    ringLeg(rt, sg, sc, dc);
                } else {
                    ringLeg(rt, sg, sc, 0);
                    switchLeg(rt, sg, dg, sg, dg);
                    ringLeg(rt, dg, 0, dc);
                }
                break;
            }
            rt.endHop = static_cast<uint32_t>(hops_.size());
            rt.endLeg = static_cast<uint32_t>(legs_.size());
            minRouteLatency_ = std::min(minRouteLatency_, rt.latency);
        }
    }
}

Cycles
Network::bookFaulted(Cycles now, const Route &r, Bytes bytes)
{
    // Each leg degrades on its own: a ring by its GPU's ring factor, the
    // switch by the GPU pair's link factor (on a crossbar the pair's
    // ports share it).
    Cycles delay = 0;
    Link *const *l = hops_.data() + r.firstHop;
    for (uint32_t i = r.firstLeg; i < r.endLeg; ++i) {
        const Leg &leg = legs_[i];
        const Bytes b = faultScaled(
            bytes, leg.ring ? plan_.ringFactor(now, leg.a)
                            : plan_.interGpuFactor(now, leg.a, leg.b));
        for (Link *const *end = hops_.data() + leg.endHop; l != end; ++l)
            delay += (*l)->book(now, b);
    }
    return delay;
}

Bytes
Network::faultScaled(Bytes bytes, double factor)
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

Bytes
Network::switchBytes() const
{
    Bytes total = 0;
    for (size_t i = egress_; i < ingress_; ++i)
        total += links_[i].bytesSent();
    return total;
}

void
Network::registerStats(telemetry::StatRegistry &reg,
                       std::function<Cycles()> now) const
{
    reg.gauge("net.inter_node_bytes",
              [this] { return static_cast<double>(interNodeBytes_); },
              StatKind::Counter);
    reg.gauge("net.inter_gpu_bytes",
              [this] { return static_cast<double>(interGpuBytes_); },
              StatKind::Counter);
    if (faulted_) {
        reg.gauge("net.fault.severed_crossings",
                  [this] {
                      return static_cast<double>(severedCrossings_);
                  },
                  StatKind::Counter);
    }
    for (const Link &l : links_)
        l.registerStats(reg, "net", now);
    // On the flat fabrics it would repeat inter_node_bytes (crossbar) or
    // read 0 (ring), so only the hierarchical fabric publishes it.
    if (hasSwitchStat_) {
        reg.formula("net.switch_bytes",
                    [this] { return static_cast<double>(switchBytes()); });
    }
}

void
Network::reset()
{
    interNodeBytes_ = 0;
    interGpuBytes_ = 0;
    for (Link &l : links_)
        l.reset();
}

void
Network::resetStats()
{
    interNodeBytes_ = 0;
    interGpuBytes_ = 0;
    for (Link &l : links_)
        l.resetStats();
}

void
Network::traceTransfer(Cycles now, Cycles delay, NodeId src, NodeId dst,
                       Bytes bytes)
{
    // GpuSystem names the interconnect process lane when it attaches.
    tr_->threadName(telemetry::kPidInterconnect, src,
                    "from node" + std::to_string(src));
    // Appended piecewise: GCC 12 reports a false -Wrestrict on
    // "literal" + std::string.
    std::string name = "n";
    name.append(std::to_string(src)).append("->n").append(
        std::to_string(dst));
    tr_->complete("net", std::move(name), telemetry::kPidInterconnect,
                  src, now, now + delay,
                  "{\"bytes\": " + std::to_string(bytes) + "}");
}

} // namespace ladm
