/**
 * @file
 * Tests for the per-NUMA-node sharded event loop (conservative PDES):
 * shard-map construction, exact conservation of work counters against
 * the serial reference, bit-identical results across shard counts and
 * across repeated runs, the serial-fallback gates, and the PDES
 * telemetry counters.
 */

#include <cstdlib>
#include <gtest/gtest.h>

#include "config/presets.hh"
#include "core/experiment.hh"
#include "sched/kernel_wide.hh"
#include "sched/shard_map.hh"
#include "sim/gpu_system.hh"
#include "workloads/registry.hh"

namespace ladm
{
namespace
{

/**
 * Run one workload on the 4-GPU x 4-chiplet machine with an explicit
 * shard count. LADM_SHARDS is cleared so only cfg.shards decides the
 * path under test.
 */
RunMetrics
runSharded(const char *workload, double scale, int shards)
{
    ::unsetenv("LADM_SHARDS");
    SystemConfig cfg = presets::multiGpu4x4();
    cfg.shards = shards;
    auto w = workloads::makeWorkload(workload, scale);
    return runExperiment(*w, Policy::Ladm, cfg);
}

TEST(ShardMap, ContiguousBalancedCover)
{
    const SystemConfig cfg = presets::multiGpu4x4();
    const ShardMap map = buildShardMap(cfg, 4);
    ASSERT_EQ(map.shards, 4);
    ASSERT_EQ(static_cast<int>(map.shardOfNode.size()), cfg.numNodes());

    // Every node appears in exactly one shard, shards are contiguous
    // node ranges, and the per-node table agrees with the per-shard one.
    int covered = 0;
    NodeId expect_next = 0;
    for (int s = 0; s < map.shards; ++s) {
        ASSERT_FALSE(map.nodesOfShard[s].empty());
        for (const NodeId n : map.nodesOfShard[s]) {
            EXPECT_EQ(n, expect_next++);
            EXPECT_EQ(map.shardOfNode[n], s);
            ++covered;
        }
    }
    EXPECT_EQ(covered, cfg.numNodes());

    // 16 nodes over 4 shards: exactly 4 each.
    for (int s = 0; s < map.shards; ++s)
        EXPECT_EQ(map.nodesOfShard[s].size(), 4u);
}

TEST(ShardMap, UnevenSplitDiffersByAtMostOne)
{
    const SystemConfig cfg = presets::multiGpu4x4(); // 16 nodes
    const ShardMap map = buildShardMap(cfg, 3);
    ASSERT_EQ(map.shards, 3);
    size_t min_sz = map.nodesOfShard[0].size();
    size_t max_sz = min_sz;
    size_t total = 0;
    for (const auto &nodes : map.nodesOfShard) {
        min_sz = std::min(min_sz, nodes.size());
        max_sz = std::max(max_sz, nodes.size());
        total += nodes.size();
    }
    EXPECT_EQ(total, static_cast<size_t>(cfg.numNodes()));
    EXPECT_LE(max_sz - min_sz, 1u);
}

TEST(ShardMap, ClampsShardCount)
{
    const SystemConfig cfg = presets::multiGpu4x4();
    // More shards than nodes: one node per shard, no empty shards.
    const ShardMap wide = buildShardMap(cfg, 99);
    EXPECT_EQ(wide.shards, cfg.numNodes());
    for (const auto &nodes : wide.nodesOfShard)
        EXPECT_EQ(nodes.size(), 1u);
    // Degenerate requests collapse to the serial single shard.
    EXPECT_EQ(buildShardMap(cfg, 0).shards, 1);
    EXPECT_EQ(buildShardMap(cfg, -3).shards, 1);
    const ShardMap one = buildShardMap(cfg, 1);
    ASSERT_EQ(one.nodesOfShard.size(), 1u);
    EXPECT_EQ(one.nodesOfShard[0].size(),
              static_cast<size_t>(cfg.numNodes()));
}

TEST(ShardedEngine, ConservesWorkAgainstSerialReference)
{
    const RunMetrics serial = runSharded("VecAdd", 2.0, 1);
    const RunMetrics pdes = runSharded("VecAdd", 2.0, 4);

    // Work counters are exact: every TB dispatched once, every warp
    // step executed once, every access issued once, regardless of how
    // the event loop is partitioned.
    EXPECT_EQ(pdes.tbCount, serial.tbCount);
    EXPECT_EQ(pdes.warpSteps, serial.warpSteps);
    EXPECT_EQ(pdes.sectorAccesses, serial.sectorAccesses);
    EXPECT_DOUBLE_EQ(pdes.warpInstrs, serial.warpInstrs);

    // Timing-derived metrics may differ within the documented
    // simultaneity-order tolerance (cross-node ops of one window
    // resolve in canonical rather than interleaved order), but stay
    // close to the serial reference.
    ASSERT_GT(serial.cycles, 0u);
    EXPECT_NEAR(static_cast<double>(pdes.cycles),
                static_cast<double>(serial.cycles),
                0.15 * static_cast<double>(serial.cycles));
    const double serial_fetches =
        static_cast<double>(serial.fetchLocal + serial.fetchRemote);
    const double pdes_fetches =
        static_cast<double>(pdes.fetchLocal + pdes.fetchRemote);
    ASSERT_GT(serial_fetches, 0.0);
    EXPECT_NEAR(pdes_fetches, serial_fetches, 0.10 * serial_fetches);
}

TEST(ShardedEngine, ShardsOneIsBitIdenticalToDefault)
{
    ::unsetenv("LADM_SHARDS");
    // shards=1 must take the untouched serial loop: identical in every
    // metric to a config that never mentioned sharding.
    const RunMetrics def = runSharded("ScalarProd", 1.0, 0);
    const RunMetrics one = runSharded("ScalarProd", 1.0, 1);
    EXPECT_EQ(one.cycles, def.cycles);
    EXPECT_EQ(one.warpSteps, def.warpSteps);
    EXPECT_EQ(one.sectorAccesses, def.sectorAccesses);
    EXPECT_EQ(one.tbCount, def.tbCount);
    EXPECT_EQ(one.fetchLocal, def.fetchLocal);
    EXPECT_EQ(one.fetchRemote, def.fetchRemote);
    EXPECT_EQ(one.interNodeBytes, def.interNodeBytes);
    EXPECT_EQ(one.interGpuBytes, def.interGpuBytes);
    EXPECT_DOUBLE_EQ(one.l1HitRate, def.l1HitRate);
    EXPECT_DOUBLE_EQ(one.l2HitRate, def.l2HitRate);
    EXPECT_EQ(one.classAccesses, def.classAccesses);
}

TEST(ShardedEngine, FallsBackSeriallyWhenMemoryModelIncompatible)
{
    // Page migration takes shortcuts the sharded lanes do not model;
    // the engine must detect that and run the serial loop even with
    // shards requested, making the run bit-identical to shards=1.
    ::unsetenv("LADM_SHARDS");
    SystemConfig cfg = presets::multiGpu4x4();
    cfg.pageMigration = true;

    RunMetrics m[2];
    const int shard_counts[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        cfg.shards = shard_counts[i];
        auto w = workloads::makeWorkload("ScalarProd", 1.0);
        m[i] = runExperiment(*w, Policy::Ladm, cfg);
    }
    EXPECT_EQ(m[1].cycles, m[0].cycles);
    EXPECT_EQ(m[1].warpSteps, m[0].warpSteps);
    EXPECT_EQ(m[1].fetchLocal, m[0].fetchLocal);
    EXPECT_EQ(m[1].fetchRemote, m[0].fetchRemote);
    EXPECT_EQ(m[1].interNodeBytes, m[0].interNodeBytes);
}

TEST(ShardDeterminism, ShardCountDoesNotChangeResults)
{
    // The windowed loop makes every cross-lane decision in canonical
    // node order, so 2, 4 and 8 shards must agree bit for bit -- not
    // merely within tolerance.
    const RunMetrics two = runSharded("ScalarProd", 2.0, 2);
    const RunMetrics four = runSharded("ScalarProd", 2.0, 4);
    const RunMetrics eight = runSharded("ScalarProd", 2.0, 8);
    for (const RunMetrics *other : {&four, &eight}) {
        EXPECT_EQ(other->cycles, two.cycles);
        EXPECT_EQ(other->warpSteps, two.warpSteps);
        EXPECT_EQ(other->sectorAccesses, two.sectorAccesses);
        EXPECT_EQ(other->tbCount, two.tbCount);
        EXPECT_EQ(other->fetchLocal, two.fetchLocal);
        EXPECT_EQ(other->fetchRemote, two.fetchRemote);
        EXPECT_EQ(other->interNodeBytes, two.interNodeBytes);
        EXPECT_EQ(other->interGpuBytes, two.interGpuBytes);
        EXPECT_EQ(other->uvmFaults, two.uvmFaults);
        EXPECT_DOUBLE_EQ(other->l1HitRate, two.l1HitRate);
        EXPECT_DOUBLE_EQ(other->l2HitRate, two.l2HitRate);
        EXPECT_EQ(other->classAccesses, two.classAccesses);
    }
}

TEST(ShardDeterminism, RepeatedShardedRunsAreIdentical)
{
    // Thread scheduling must not leak into results: two runs of the
    // same sharded config agree exactly.
    const RunMetrics a = runSharded("VecAdd", 2.0, 4);
    const RunMetrics b = runSharded("VecAdd", 2.0, 4);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.fetchLocal, b.fetchLocal);
    EXPECT_EQ(a.fetchRemote, b.fetchRemote);
    EXPECT_EQ(a.interNodeBytes, b.interNodeBytes);
    EXPECT_DOUBLE_EQ(a.l2HitRate, b.l2HitRate);
    EXPECT_EQ(a.classAccesses, b.classAccesses);
}

TEST(ShardDeterminism, FirstTouchRemoteCellPinned)
{
    // The ladm cells above map every page up front, so they never take
    // the deferred first-touch path. CONV under batch+ft faults its
    // pages in from the shard lanes and issues every deferred op kind:
    // ~1.02M remote fetches, ~17k untranslated (first-touch) accesses
    // and ~6.7k remote-homed dirty writebacks. Both shard counts must
    // agree, and both must equal the values this path produced before
    // the access pipeline was unified.
    ::unsetenv("LADM_SHARDS");
    RunMetrics m[2];
    const int shard_counts[2] = {2, 8};
    for (int i = 0; i < 2; ++i) {
        SystemConfig cfg = presets::multiGpu4x4();
        cfg.shards = shard_counts[i];
        auto w = workloads::makeWorkload("CONV", 1.0);
        m[i] = runExperiment(*w, Policy::BatchFt, cfg);
    }
    for (const RunMetrics &r : m) {
        EXPECT_EQ(r.cycles, 78624u);
        EXPECT_EQ(r.fetchLocal, 119138u);
        EXPECT_EQ(r.fetchRemote, 1032302u);
        EXPECT_EQ(r.uvmFaults, 2049u);
        EXPECT_EQ(r.interNodeBytes, 42506160u);
        EXPECT_EQ(r.interGpuBytes, 24082688u);
    }
    EXPECT_EQ(m[1].warpSteps, m[0].warpSteps);
    EXPECT_EQ(m[1].sectorAccesses, m[0].sectorAccesses);
    EXPECT_DOUBLE_EQ(m[1].l1HitRate, m[0].l1HitRate);
    EXPECT_DOUBLE_EQ(m[1].l2HitRate, m[0].l2HitRate);
    EXPECT_EQ(m[1].classAccesses, m[0].classAccesses);
}

/**
 * Synthetic trace whose output is a pure function of (tb, warp, step):
 * per-shard instances are interchangeable, as the engine requires.
 */
class PureTrace : public TraceSource
{
  public:
    PureTrace(int64_t steps, Addr base) : steps_(steps), base_(base) {}

    bool
    warpStep(TbId tb, int warp, int64_t step,
             std::vector<MemAccess> &out) override
    {
        if (step >= steps_)
            return false;
        out.push_back({base_ + static_cast<Addr>(tb) * 4096 +
                           static_cast<Addr>(warp) * 128 +
                           static_cast<Addr>(step) * 32,
                       false});
        return true;
    }

  private:
    int64_t steps_;
    Addr base_;
};

TEST(ShardedEngine, CountsWindowsInPdesTelemetry)
{
    ::unsetenv("LADM_SHARDS");
    SystemConfig cfg = presets::multiGpu4x4();
    cfg.shards = 4;
    GpuSystem sys(cfg);
    ASSERT_EQ(sys.engineShards(), 4);
    sys.mem().pageTable().place(0, 1ull << 32, 0);

    LaunchDims dims;
    dims.grid = {64, 1};
    dims.block = {128, 1};
    dims.loopTrips = 4;

    PureTrace trace(4, 0);
    PureTrace t1(4, 0), t2(4, 0), t3(4, 0);
    KernelWideScheduler sched;
    const KernelRunStats stats =
        sys.runKernel(dims, trace, sched.assign(dims, cfg),
                      L2InsertPolicy::RTwice, true, {&t1, &t2, &t3});

    // 64 TBs x 4 warps x 4 steps, none lost across lanes.
    EXPECT_EQ(stats.warpSteps, 64u * 4u * 4u);
    EXPECT_EQ(stats.tbCount, 64);

    const auto shards = sys.registry().value("engine.pdes.shards");
    ASSERT_TRUE(shards.has_value());
    EXPECT_EQ(*shards, 4.0);
    const auto windows = sys.registry().value("engine.pdes.windows");
    ASSERT_TRUE(windows.has_value());
    EXPECT_GT(*windows, 0.0);
}

} // namespace
} // namespace ladm
