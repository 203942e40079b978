/**
 * @file
 * Tests for the ladm::check robustness layer: structured config
 * validation, the FaultPlan grammar and queries, graceful degradation in
 * the memory system and schedulers, the MSHR-drain and watchdog
 * invariants, NaN-safe aggregation, and error-carrying sweeps.
 */

#include <gtest/gtest.h>

#include "check/fault_plan.hh"
#include "check/invariants.hh"
#include "common/sim_error.hh"
#include "config/presets.hh"
#include "core/metrics.hh"
#include "core/sweep_runner.hh"
#include "sched/kernel_wide.hh"
#include "sim/gpu_system.hh"
#include "sim/memory_system.hh"

namespace ladm
{
namespace
{

// --- SystemConfig::validate ------------------------------------------------

TEST(ConfigValidate, CollectsEveryViolation)
{
    auto c = presets::multiGpu4x4();
    c.chipletsPerGpu = 0;       // count violation
    c.pageSize = 1000;          // not a power of two
    c.memBwPerChipletGBs = 0.0; // bandwidth violation
    const auto diags = c.validateCollect();
    EXPECT_GE(diags.size(), 3u);
    bool saw_chiplets = false, saw_page = false, saw_bw = false;
    for (const Diagnostic &d : diags) {
        EXPECT_FALSE(d.field.empty());
        EXPECT_FALSE(d.constraint.empty());
        EXPECT_FALSE(d.hint.empty());
        saw_chiplets |= d.field == "system.chipletsPerGpu";
        saw_page |= d.field == "system.pageSize";
        saw_bw |= d.field == "system.memBwPerChipletGBs";
    }
    EXPECT_TRUE(saw_chiplets);
    EXPECT_TRUE(saw_page);
    EXPECT_TRUE(saw_bw);
}

TEST(ConfigValidate, TopologyShapeRules)
{
    auto mono = presets::monolithic256();
    mono.numGpus = 4; // monolithic must be exactly one node
    EXPECT_FALSE(mono.validateCollect().empty());

    auto hier = presets::multiGpu4x4();
    hier.chipletsPerGpu = 1; // hierarchical needs a package ring
    EXPECT_FALSE(hier.validateCollect().empty());
}

TEST(ConfigValidate, ThrowsConfigKindWithReport)
{
    auto c = presets::multiGpu4x4();
    c.smsPerChiplet = -3;
    try {
        c.validate();
        FAIL() << "validate() accepted a negative SM count";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Config);
        ASSERT_FALSE(e.diagnostics().empty());
        // The multi-line report renders every finding.
        EXPECT_NE(e.report().find("smsPerChiplet"), std::string::npos);
        EXPECT_NE(e.report().find("-3"), std::string::npos);
    }
}

TEST(ConfigValidate, BadFaultSpecSurfacesAsConfigDiagnostics)
{
    auto c = presets::multiGpu4x4();
    c.faultSpec = "link:0-9:0.5@0"; // GPU 9 does not exist on 4 GPUs
    EXPECT_FALSE(c.validateCollect().empty());
    c.faultSpec = "wibble:0:0.5@0"; // unparseable kind
    EXPECT_FALSE(c.validateCollect().empty());
}

// --- FaultPlan -------------------------------------------------------------

TEST(FaultPlan, ParseRoundTrips)
{
    const std::string spec =
        "link:0-1:0.25@1000;ring:2:0.5@500;chiplet:5:fail@0";
    const auto plan = check::FaultPlan::parse(spec);
    EXPECT_EQ(plan.events().size(), 3u);
    const auto again = check::FaultPlan::parse(plan.toSpec());
    EXPECT_EQ(again.toSpec(), plan.toSpec());
}

TEST(FaultPlan, EmptySpecIsEmptyPlan)
{
    const auto plan = check::FaultPlan::parse("");
    EXPECT_TRUE(plan.empty());
    EXPECT_FALSE(plan.anyChipletFaults());
    EXPECT_DOUBLE_EQ(plan.interGpuFactor(1'000'000, 0, 1), 1.0);
}

TEST(FaultPlan, ParseErrorsCarryPerEventDiagnostics)
{
    try {
        check::FaultPlan::parse("link:0-1:2.5@0;bogus;ring:0:0.5@x");
        FAIL() << "a malformed spec was accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Fault);
        EXPECT_GE(e.diagnostics().size(), 2u);
    }
}

TEST(FaultPlan, FactorsActivateAtCycleAndMultiply)
{
    const auto plan = check::FaultPlan::parse(
        "link:0-1:0.5@100;link:1-0:0.5@200;ring:1:sever@50");
    // Before activation the fabric is healthy.
    EXPECT_DOUBLE_EQ(plan.interGpuFactor(99, 0, 1), 1.0);
    // One event active; the pair is unordered.
    EXPECT_DOUBLE_EQ(plan.interGpuFactor(150, 1, 0), 0.5);
    // Both active: factors multiply.
    EXPECT_DOUBLE_EQ(plan.interGpuFactor(200, 0, 1), 0.25);
    // Unrelated link untouched.
    EXPECT_DOUBLE_EQ(plan.interGpuFactor(500, 2, 3), 1.0);
    // "sever" parses as 0.
    EXPECT_DOUBLE_EQ(plan.ringFactor(50, 1), 0.0);
    EXPECT_DOUBLE_EQ(plan.ringFactor(49, 1), 1.0);
}

TEST(FaultPlan, NodeFailureAndFallback)
{
    const auto cfg = presets::multiGpu4x4(); // nodes 0..15, 4 per GPU
    const auto plan =
        check::FaultPlan::parse("chiplet:5:fail@10;chiplet:6:fail@10");
    EXPECT_FALSE(plan.nodeFailed(9, 5));
    EXPECT_TRUE(plan.nodeFailed(10, 5));
    EXPECT_TRUE(plan.anyChipletFaults());
    // Next healthy chiplet on the same GPU (node 5 -> skip dead 6 -> 7).
    EXPECT_EQ(plan.fallbackNode(10, 5, cfg), 7);
    // Healthy nodes fall back to themselves... (contract: only called
    // for failed nodes; nearest healthy is itself)
    const NodeId fb = plan.fallbackNode(10, 6, cfg);
    EXPECT_NE(fb, 5);
    EXPECT_NE(fb, 6);
}

TEST(FaultPlan, WholeGpuDeadFallsBackAcrossGpus)
{
    const auto cfg = presets::multiGpu4x4();
    const auto plan = check::FaultPlan::parse(
        "chiplet:4:fail@0;chiplet:5:fail@0;chiplet:6:fail@0;"
        "chiplet:7:fail@0");
    const NodeId fb = plan.fallbackNode(0, 5, cfg);
    EXPECT_TRUE(fb < 4 || fb >= 8) << "fallback picked a dead chiplet";
}

TEST(FaultPlan, ValidateAgainstMachineShape)
{
    const auto cfg = presets::multiGpu4x4();
    // Healthy plan: no findings.
    EXPECT_TRUE(check::FaultPlan::parse("link:0-1:0.5@0")
                    .validateAgainst(cfg)
                    .empty());
    // Out-of-range ids and every chiplet failing are findings.
    EXPECT_FALSE(check::FaultPlan::parse("link:0-7:0.5@0")
                     .validateAgainst(cfg)
                     .empty());
    EXPECT_FALSE(check::FaultPlan::parse("chiplet:99:fail@0")
                     .validateAgainst(cfg)
                     .empty());
    std::string all;
    for (int n = 0; n < cfg.numNodes(); ++n) {
        all += n ? ";chiplet:" : "chiplet:";
        all += std::to_string(n);
        all += ":fail@0";
    }
    EXPECT_FALSE(
        check::FaultPlan::parse(all).validateAgainst(cfg).empty());
}

// --- graceful degradation --------------------------------------------------

TEST(FaultDegradation, MemorySystemRehomesPagesOffDeadChiplets)
{
    auto cfg = presets::multiGpu4x4();
    cfg.faultSpec = "chiplet:5:fail@0";
    MemorySystem mem(cfg);
    const Addr addr = 0x10000;
    mem.pageTable().place(addr, cfg.pageSize, 5);
    ASSERT_EQ(mem.pageTable().lookup(addr), 5);
    mem.access(100, /*sm=*/0, addr, false);
    EXPECT_EQ(mem.rehomedPages(), 1u);
    EXPECT_EQ(mem.failedNodeAccesses(), 0u);
    const NodeId home = mem.pageTable().lookup(addr);
    EXPECT_NE(home, 5);
    EXPECT_NE(home, kInvalidNode);
    // A second access finds the rescued page; no second rescue.
    mem.access(200, 0, addr, false);
    EXPECT_EQ(mem.rehomedPages(), 1u);
}

TEST(FaultDegradation, ObliviousModeCrawlsInstead)
{
    auto cfg = presets::multiGpu4x4();
    cfg.faultSpec = "chiplet:5:fail@0";
    cfg.faultDegradation = false;
    MemorySystem mem(cfg);
    const Addr addr = 0x10000;
    mem.pageTable().place(addr, cfg.pageSize, 5);
    const Cycles done = mem.access(100, 0, addr, false);
    EXPECT_GE(mem.failedNodeAccesses(), 1u);
    EXPECT_EQ(mem.rehomedPages(), 0u);
    EXPECT_EQ(mem.pageTable().lookup(addr), 5) << "page must not move";
    // The crawl dwarfs a healthy access's latency.
    auto healthy_cfg = presets::multiGpu4x4();
    MemorySystem healthy(healthy_cfg);
    healthy.pageTable().place(addr, healthy_cfg.pageSize, 5);
    const Cycles healthy_done = healthy.access(100, 0, addr, false);
    EXPECT_GT(done, healthy_done);
}

TEST(FaultDegradation, SchedulerRebindsQueuesOffDeadNodes)
{
    auto cfg = presets::multiGpu4x4();
    cfg.faultSpec = "chiplet:5:fail@0";
    LaunchDims dims;
    dims.grid = {256, 1};
    dims.block = {128, 1};
    KernelWideScheduler sched;
    const auto queues = sched.assign(dims, cfg);
    ASSERT_EQ(queues.size(), static_cast<size_t>(cfg.numNodes()));
    EXPECT_TRUE(queues[5].empty());
    // Every TB still dispatched exactly once.
    std::vector<int> seen(dims.numTbs(), 0);
    for (const auto &q : queues)
        for (const TbId tb : q)
            ++seen[tb];
    for (const int count : seen)
        EXPECT_EQ(count, 1);

    // The ablation keeps the dead node's queue.
    cfg.faultDegradation = false;
    const auto oblivious = sched.assign(dims, cfg);
    EXPECT_FALSE(oblivious[5].empty());
}

// --- invariant suite -------------------------------------------------------

TEST(CheckSuite, ScopedEnableRestores)
{
    const bool before = check::enabled();
    {
        check::ScopedEnable on;
        EXPECT_TRUE(check::enabled());
        {
            check::ScopedEnable off(false);
            EXPECT_FALSE(check::enabled());
        }
        EXPECT_TRUE(check::enabled());
    }
    EXPECT_EQ(check::enabled(), before);
}

TEST(CheckSuite, DrainCheckCatchesLeakedMshr)
{
    const auto cfg = presets::multiGpu4x4();
    MemorySystem mem(cfg);
    mem.checkDrained(1000); // clean machine: no throw
    mem.debugInjectPending(3, 0x4440, 5000);
    try {
        mem.checkDrained(1000);
        FAIL() << "a leaked MSHR entry went unnoticed";
    } catch (const InvariantViolation &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Invariant);
        ASSERT_FALSE(e.diagnostics().empty());
        EXPECT_EQ(e.diagnostics()[0].field, "node3.mshr");
    }
    // An entry completing at/before the drain point is legitimate.
    MemorySystem ok(cfg);
    ok.debugInjectPending(3, 0x4440, 1000);
    ok.checkDrained(1000);
}

TEST(CheckSuite, DrainCheckListsEveryLeakedSectorOfALine)
{
    // Two sectors of one 128-byte line share an MSHR slot; the drain
    // check must still name each of them, and skip the line's sector
    // that completed in time.
    MemorySystem mem(presets::multiGpu4x4());
    mem.debugInjectPending(3, 0x4400, 900);
    mem.debugInjectPending(3, 0x4440, 5000);
    mem.debugInjectPending(3, 0x4460, 6000);
    try {
        mem.checkDrained(1000);
        FAIL() << "leaked MSHR sectors went unnoticed";
    } catch (const InvariantViolation &e) {
        ASSERT_EQ(e.diagnostics().size(), 2u) << e.what();
        EXPECT_EQ(e.diagnostics()[0].field, "node3.mshr");
        EXPECT_EQ(e.diagnostics()[0].value, "sector 0x4440");
        EXPECT_EQ(e.diagnostics()[1].value, "sector 0x4460");
        EXPECT_NE(std::string(e.what()).find("2 outstanding miss(es)"),
                  std::string::npos)
            << e.what();
    }
}

/** Trace that never retires and never touches memory: with a zero
 *  compute gap the engine spins without advancing time -- exactly the
 *  hang the watchdog exists to catch. */
class HangingTrace : public TraceSource
{
  public:
    bool
    warpStep(TbId, int, int64_t, std::vector<MemAccess> &) override
    {
        return true;
    }
};

TEST(CheckSuite, WatchdogAbortsHungKernel)
{
    check::ScopedEnable on;
    const uint64_t saved = check::watchdogLimit();
    check::setWatchdogLimit(10'000);
    auto cfg = presets::monolithic256();
    cfg.computeGapCycles = 0;
    GpuSystem sys(cfg);
    sys.mem().pageTable().place(0, 1ull << 30, 0);
    HangingTrace trace;
    LaunchDims dims;
    dims.grid = {1, 1};
    dims.block = {32, 1};
    KernelWideScheduler sched;
    try {
        sys.runKernel(dims, trace, sched.assign(dims, cfg),
                      L2InsertPolicy::RTwice);
        FAIL() << "a hung kernel ran to completion";
    } catch (const InvariantViolation &e) {
        EXPECT_NE(std::string(e.what()).find("no progress"),
                  std::string::npos);
    }
    check::setWatchdogLimit(saved);
}

// --- NaN-safe aggregation --------------------------------------------------

TEST(Aggregation, EmptyInputsYieldZeroNotNan)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({0.0, -1.0}), 0.0);
}

TEST(Aggregation, WellFormedInputsUnchanged)
{
    EXPECT_DOUBLE_EQ(mean({2.0, 4.0}), 3.0);
    EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
    // Non-positive entries are skipped, not poisoned into NaN.
    EXPECT_DOUBLE_EQ(geomean({2.0, 0.0, 8.0}), 4.0);
}

// --- error-carrying sweeps -------------------------------------------------

TEST(SweepOutcomes, FailedJobBecomesErrorRow)
{
    core::SweepRunner::Options opts;
    opts.jobs = 2;
    core::SweepRunner runner(opts);
    runner.submit([] {
        RunMetrics m;
        m.workload = "good-1";
        return m;
    });
    runner.submit([]() -> RunMetrics {
        throw SimError(SimError::Kind::Config, "planted failure");
    });
    runner.submit([] {
        RunMetrics m;
        m.workload = "good-2";
        return m;
    });
    const auto out = runner.outcomes();
    ASSERT_EQ(out.size(), 3u);
    EXPECT_FALSE(out[0].failed());
    EXPECT_EQ(out[0].workload, "good-1");
    ASSERT_TRUE(out[1].failed());
    EXPECT_NE(out[1].error.find("planted failure"), std::string::npos);
    EXPECT_FALSE(out[2].failed());
    EXPECT_EQ(out[2].workload, "good-2");
}

TEST(SweepOutcomes, ErrorRowsSurviveTheCsvSink)
{
    RunMetrics m;
    m.workload = "w";
    m.error = "bad, config\nline two";
    const std::string row = csvRow(m);
    // The sanitizer keeps the row a single CSV record.
    EXPECT_EQ(row.find('\n'), std::string::npos);
    EXPECT_NE(row.find("bad; config"), std::string::npos);
}

} // namespace
} // namespace ladm
