/**
 * @file
 * Route equivalence: the fabric must book exactly what the historical
 * per-topology routers booked, transfer by transfer.
 *
 * The reference below keeps those routers as they were written: a flat
 * ring takes the shorter direction segment by segment, a hierarchical
 * fabric rides the source GPU's ring to its switch port (chiplet 0),
 * crosses the GPU egress and ingress links, then rides the destination
 * GPU's ring, and a crossbar books the source's egress and the
 * destination's ingress port. Fault-plan factors scale each leg's
 * payload on their own, and every leg that consults a severed domain
 * counts one crossing, even a ring leg of zero hops. Seeded transfer
 * streams on every preset, with and without a fault plan, must give the
 * same delay for every transfer and the same per-link byte and busy
 * counters, boundary totals and severed-crossing count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "check/fault_plan.hh"
#include "common/bandwidth_server.hh"
#include "config/presets.hh"
#include "interconnect/network.hh"
#include "telemetry/stat_registry.hh"

namespace ladm
{
namespace
{

class ReferenceFabric
{
  public:
    explicit ReferenceFabric(const SystemConfig &cfg)
        : cfg_(cfg), plan_(check::FaultPlan::parse(cfg.faultSpec))
    {
        const double ring_bpc =
            cfg.bytesPerCycle(cfg.interChipletRingGBs) / 2.0;
        const double link_bpc = cfg.bytesPerCycle(cfg.interGpuLinkGBs);
        switch (cfg.topology) {
          case Topology::Monolithic:
            break;
          case Topology::Crossbar:
            for (int i = 0; i < cfg.numNodes(); ++i) {
                add("xbar.egress" + std::to_string(i), link_bpc);
                add("xbar.ingress" + std::to_string(i), link_bpc);
            }
            break;
          case Topology::Ring:
            addRing("ring", cfg.numNodes(), ring_bpc);
            break;
          case Topology::Hierarchical:
            for (int g = 0; g < cfg.numGpus; ++g) {
                const std::string gpu = "gpu" + std::to_string(g);
                addRing(gpu + ".ring", cfg.chipletsPerGpu, ring_bpc);
                add(gpu + ".egress", link_bpc);
                add(gpu + ".ingress", link_bpc);
            }
            break;
        }
    }

    Cycles
    route(Cycles now, NodeId src, NodeId dst, Bytes bytes)
    {
        if (src == dst)
            return 0;
        interNode_ += bytes;
        const GpuId sg = cfg_.gpuOfNode(src);
        const GpuId dg = cfg_.gpuOfNode(dst);
        if (sg != dg)
            interGpu_ += bytes;
        const bool faults = !plan_.empty();
        switch (cfg_.topology) {
          case Topology::Monolithic:
            ADD_FAILURE() << "monolithic fabric routed a transfer";
            return 0;
          case Topology::Crossbar: {
            if (faults)
                bytes = scaled(bytes, plan_.interGpuFactor(now, sg, dg));
            Cycles d = book("xbar.egress" + std::to_string(src), now, bytes);
            d += book("xbar.ingress" + std::to_string(dst), now, bytes);
            return d + cfg_.switchLatencyCycles;
          }
          case Topology::Ring:
            if (faults)
                bytes = scaled(bytes, plan_.ringFactor(now, 0));
            return ring("ring", cfg_.numNodes(), now, src, dst, bytes);
          case Topology::Hierarchical:
            break;
        }
        const int sc = cfg_.chipletOfNode(src);
        const int dc = cfg_.chipletOfNode(dst);
        const int c = cfg_.chipletsPerGpu;
        const std::string sring = "gpu" + std::to_string(sg) + ".ring";
        const std::string dring = "gpu" + std::to_string(dg) + ".ring";
        if (sg == dg) {
            if (faults)
                bytes = scaled(bytes, plan_.ringFactor(now, sg));
            return ring(sring, c, now, sc, dc, bytes);
        }
        Bytes src_ring = bytes, link = bytes, dst_ring = bytes;
        if (faults) {
            src_ring = scaled(bytes, plan_.ringFactor(now, sg));
            link = scaled(bytes, plan_.interGpuFactor(now, sg, dg));
            dst_ring = scaled(bytes, plan_.ringFactor(now, dg));
        }
        Cycles d = ring(sring, c, now, sc, 0, src_ring);
        d += book("gpu" + std::to_string(sg) + ".egress", now, link);
        d += book("gpu" + std::to_string(dg) + ".ingress", now, link);
        d += cfg_.switchLatencyCycles;
        d += ring(dring, c, now, 0, dc, dst_ring);
        return d;
    }

    void
    resetStats()
    {
        interNode_ = 0;
        interGpu_ = 0;
        for (auto &[name, s] : links_)
            s.resetStats();
    }

    const std::map<std::string, BandwidthServer> &links() const
    {
        return links_;
    }
    Bytes interNodeBytes() const { return interNode_; }
    Bytes interGpuBytes() const { return interGpu_; }
    uint64_t severedCrossings() const { return severed_; }

  private:
    void
    add(const std::string &name, double bpc)
    {
        links_.emplace(name, BandwidthServer(bpc, 0));
    }

    void
    addRing(const std::string &prefix, int n, double bpc)
    {
        for (int i = 0; i < n; ++i) {
            add(prefix + ".cw" + std::to_string(i), bpc);
            add(prefix + ".ccw" + std::to_string(i), bpc);
        }
    }

    Cycles
    book(const std::string &name, Cycles now, Bytes bytes)
    {
        return links_.at(name).book(now, bytes);
    }

    Cycles
    ring(const std::string &prefix, int n, Cycles now, int src, int dst,
         Bytes bytes)
    {
        const int fwd = ((dst - src) % n + n) % n;
        const int bwd = (n - fwd) % n;
        Cycles d = 0;
        if (fwd <= bwd) {
            for (int i = 0, idx = src; i < fwd; ++i, idx = (idx + 1) % n)
                d += book(prefix + ".cw" + std::to_string(idx), now, bytes) +
                     cfg_.ringHopLatencyCycles;
        } else {
            for (int i = 0, idx = src; i < bwd; ++i, idx = (idx + n - 1) % n)
                d += book(prefix + ".ccw" + std::to_string(idx), now, bytes) +
                     cfg_.ringHopLatencyCycles;
        }
        return d;
    }

    Bytes
    scaled(Bytes bytes, double factor)
    {
        if (factor >= 1.0)
            return bytes;
        if (factor <= 0.0) {
            ++severed_;
            factor = check::kSeveredResidualFactor;
        } else if (factor < check::kSeveredResidualFactor) {
            factor = check::kSeveredResidualFactor;
        }
        return static_cast<Bytes>(static_cast<double>(bytes) / factor);
    }

    SystemConfig cfg_;
    check::FaultPlan plan_;
    std::map<std::string, BandwidthServer> links_;
    Bytes interNode_ = 0;
    Bytes interGpu_ = 0;
    uint64_t severed_ = 0;
};

/** Link names the fabric publishes: "net.<link>.busy_cycles" stats. */
std::set<std::string>
publishedLinks(const telemetry::StatRegistry &reg)
{
    static const std::string kSuffix = ".busy_cycles";
    std::set<std::string> names;
    reg.visit([&](const std::string &path, double, StatKind) {
        if (path.size() > kSuffix.size() &&
            path.compare(path.size() - kSuffix.size(), kSuffix.size(),
                         kSuffix) == 0)
            names.insert(path.substr(4, path.size() - 4 - kSuffix.size()));
    });
    return names;
}

void
expectSameCounters(const Network &net, const telemetry::StatRegistry &reg,
                   const ReferenceFabric &ref, const std::string &where)
{
    EXPECT_EQ(net.interNodeBytes(), ref.interNodeBytes()) << where;
    EXPECT_EQ(net.interGpuBytes(), ref.interGpuBytes()) << where;
    EXPECT_EQ(net.severedCrossings(), ref.severedCrossings()) << where;
    std::set<std::string> want;
    for (const auto &[name, s] : ref.links()) {
        want.insert(name);
        const std::string p = "net." + name;
        EXPECT_EQ(reg.value(p + ".bytes").value_or(-1.0),
                  static_cast<double>(s.totalBytes()))
            << where << " " << p;
        EXPECT_EQ(reg.value(p + ".busy_cycles").value_or(-1.0),
                  static_cast<double>(s.busyCycles()))
            << where << " " << p;
    }
    EXPECT_EQ(publishedLinks(reg), want) << where;
}

/** Drive one seeded stream through the fabric and the reference. */
void
checkPreset(SystemConfig cfg, const std::string &fault_spec, uint64_t seed)
{
    cfg.faultSpec = fault_spec;
    const std::string where = cfg.name + " faults='" + fault_spec + "'";
    Network net(cfg);
    ReferenceFabric ref(cfg);
    telemetry::StatRegistry reg;
    net.registerStats(reg);

    std::mt19937_64 rng(seed);
    const int nodes = cfg.numNodes();
    const Bytes sizes[] = {8, 32, 128, 4096};
    Cycles now = 0;
    constexpr int kTransfers = 20000;
    for (int i = 0; i < kTransfers; ++i) {
        now += rng() % 12;
        const NodeId src = static_cast<NodeId>(rng() % nodes);
        const NodeId dst = static_cast<NodeId>(rng() % nodes);
        const Bytes bytes = sizes[rng() % 4];
        const Cycles got = net.routeDelay(now, src, dst, bytes);
        const Cycles want = ref.route(now, src, dst, bytes);
        ASSERT_EQ(got, want) << where << " transfer " << i << " at " << now
                             << ": " << src << " -> " << dst << ", "
                             << bytes << " B";
        if (i == kTransfers / 2) {
            expectSameCounters(net, reg, ref, where + " (mid-stream)");
            net.resetStats();
            ref.resetStats();
        }
    }
    expectSameCounters(net, reg, ref, where);
}

// Severs the GPU 0-1 link from cycle 2000, halves ring 0 from 1000 and
// quarters ring 2 from 3000; degrades the GPU 2-3 link from 500. A flat
// ring is ring 0; a flat crossbar's nodes are GPUs.
const char *const kFaults =
    "link:0-1:sever@2000;ring:0:0.5@1000;ring:2:0.25@3000;"
    "link:2-3:0.5@500";

std::vector<SystemConfig>
everyPreset()
{
    return {presets::multiGpu4x4(), presets::dgx4(),
            presets::multiGpuFlat(4, 90.0), presets::mcmRing(4, 1400.0),
            presets::monolithic256()};
}

TEST(RouteEquivalence, EveryPresetMatchesTheHistoricalRouters)
{
    uint64_t seed = 1;
    for (const SystemConfig &cfg : everyPreset()) {
        checkPreset(cfg, "", seed++);
        checkPreset(cfg, kFaults, seed++);
    }
}

TEST(RouteEquivalence, SeveredLinkCountsEveryLegOfACrossGpuRoute)
{
    // Node 0 sits on GPU 0's switch-port chiplet: its source-ring leg
    // has zero hops, yet a route that reaches a severed domain through
    // it still consults the plan once per leg.
    SystemConfig cfg = presets::multiGpu4x4();
    cfg.faultSpec = "ring:0:sever@0;link:0-1:sever@0;ring:1:sever@0";
    Network net(cfg);
    net.routeDelay(0, 0, 4, 32); // GPU 0 chiplet 0 -> GPU 1 chiplet 0
    EXPECT_EQ(net.severedCrossings(), 3u);
    net.routeDelay(0, 0, 1, 32); // within GPU 0: one ring leg
    EXPECT_EQ(net.severedCrossings(), 4u);
}

TEST(RouteEquivalence, LookaheadIsTheHistoricalFormulaOnEveryPreset)
{
    // The PDES lookahead is the smallest fixed route latency. It must
    // equal the per-topology formula it replaced: the switch latency on
    // a crossbar, one hop on a ring, the smaller of the two on the
    // hierarchical fabric and 0 on a one-node machine. The last preset
    // makes the switch cheaper than a hop.
    std::vector<SystemConfig> cfgs = everyPreset();
    cfgs.push_back(presets::multiGpu4x4());
    cfgs.back().ringHopLatencyCycles = 200;
    cfgs.back().switchLatencyCycles = 50;
    for (const SystemConfig &cfg : cfgs) {
        Cycles want = 0;
        switch (cfg.topology) {
          case Topology::Crossbar:
            want = cfg.switchLatencyCycles;
            break;
          case Topology::Ring:
            want = cfg.ringHopLatencyCycles;
            break;
          case Topology::Hierarchical:
            want = std::min(cfg.ringHopLatencyCycles,
                            cfg.switchLatencyCycles);
            break;
          case Topology::Monolithic:
            break;
        }
        EXPECT_EQ(Network(cfg).minRouteLatency(), want) << cfg.name;
    }
}

} // namespace
} // namespace ladm
