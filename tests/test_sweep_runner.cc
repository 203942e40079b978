/**
 * @file
 * Tests for the parallel sweep runner: parallel/serial equivalence
 * (bitwise-identical RunMetrics, per-node breakdowns included),
 * deterministic submission-order results under varying worker counts,
 * exception propagation, and the jobs-resolution knob hierarchy.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>
#include <thread>

#include "common/sim_error.hh"
#include "config/options.hh"
#include "config/presets.hh"
#include "core/sweep_runner.hh"
#include "telemetry/session.hh"

namespace ladm
{
namespace
{

constexpr double kScale = 0.25;

/** The small-but-diverse grid the equivalence tests replay. */
std::vector<core::SweepCell>
smallGrid()
{
    const auto cfg = presets::multiGpu4x4();
    std::vector<core::SweepCell> cells;
    for (const char *w : {"VecAdd", "SRAD", "ScalarProd", "SQ-GEMM"}) {
        for (const Policy p : {Policy::Coda, Policy::Ladm}) {
            core::SweepCell c;
            c.workload = w;
            c.policy = p;
            c.cfg = cfg;
            c.scale = kScale;
            cells.push_back(c);
        }
    }
    return cells;
}

/** Full-metric equality, including the per-node fetch breakdowns. */
void
expectIdentical(const RunMetrics &a, const RunMetrics &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.insertPolicy, b.insertPolicy);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.tbCount, b.tbCount);
    EXPECT_EQ(a.sectorAccesses, b.sectorAccesses);
    EXPECT_EQ(a.fetchLocal, b.fetchLocal);
    EXPECT_EQ(a.fetchRemote, b.fetchRemote);
    EXPECT_EQ(a.nodeFetchLocal, b.nodeFetchLocal);
    EXPECT_EQ(a.nodeFetchRemote, b.nodeFetchRemote);
    EXPECT_EQ(a.interNodeBytes, b.interNodeBytes);
    EXPECT_EQ(a.interGpuBytes, b.interGpuBytes);
    EXPECT_EQ(a.uvmFaults, b.uvmFaults);
    EXPECT_EQ(a.classAccesses, b.classAccesses);
    EXPECT_DOUBLE_EQ(a.offChipPct, b.offChipPct);
    EXPECT_DOUBLE_EQ(a.l1HitRate, b.l1HitRate);
    EXPECT_DOUBLE_EQ(a.l2HitRate, b.l2HitRate);
    EXPECT_DOUBLE_EQ(a.l2Mpki, b.l2Mpki);
    EXPECT_DOUBLE_EQ(a.warpInstrs, b.warpInstrs);
    // Byte-identical rows == byte-identical bench CSV/JSON output.
    EXPECT_EQ(csvRow(a), csvRow(b));
}

TEST(SweepRunner, ParallelMatchesSerial)
{
    const auto cells = smallGrid();
    const auto serial = core::runSweep(cells, 1);
    const auto parallel = core::runSweep(cells, 4);
    ASSERT_EQ(serial.size(), cells.size());
    ASSERT_EQ(parallel.size(), cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(cells[i].workload);
        expectIdentical(serial[i], parallel[i]);
    }
}

TEST(SweepRunner, ResultsFollowSubmissionOrder)
{
    // Later-submitted jobs finish *first* (decreasing sleep), so any
    // completion-order leakage scrambles the result vector.
    for (const int jobs : {1, 2, 8}) {
        core::SweepRunner runner({jobs});
        EXPECT_EQ(runner.jobs(), jobs);
        constexpr int kJobs = 12;
        for (int i = 0; i < kJobs; ++i) {
            runner.submit([i] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(kJobs - i));
                RunMetrics m;
                m.workload = "job" + std::to_string(i);
                m.cycles = static_cast<Cycles>(i);
                return m;
            });
        }
        const auto out = runner.results();
        ASSERT_EQ(out.size(), static_cast<size_t>(kJobs)) << jobs;
        for (int i = 0; i < kJobs; ++i) {
            EXPECT_EQ(out[i].workload, "job" + std::to_string(i));
            EXPECT_EQ(out[i].cycles, static_cast<Cycles>(i));
        }
    }
}

TEST(SweepRunner, PropagatesEarliestSubmittedFailure)
{
    core::SweepRunner runner({4});
    std::atomic<int> completed{0};
    runner.submit([&] {
        ++completed;
        return RunMetrics{};
    });
    runner.submit([]() -> RunMetrics {
        throw std::runtime_error("first failure");
    });
    runner.submit([]() -> RunMetrics {
        throw std::logic_error("second failure");
    });
    runner.submit([&] {
        ++completed;
        return RunMetrics{};
    });
    try {
        runner.results();
        FAIL() << "results() must rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "first failure");
    }
    // The barrier ran every job before rethrowing.
    EXPECT_EQ(completed.load(), 2);
}

TEST(SweepRunner, ExplicitJobsBeatsEnvironment)
{
    setenv("LADM_BENCH_JOBS", "7", 1);
    EXPECT_EQ(core::SweepRunner::resolveJobs(3), 3);
    EXPECT_EQ(core::SweepRunner::resolveJobs(0), 7);
    unsetenv("LADM_BENCH_JOBS");
}

TEST(SweepRunner, BadNumbersAreConfigErrorsNamingTheirSource)
{
    // Through the option table: flag text first, then the variable.
    auto parsed = [](std::vector<std::string> args) {
        args.insert(args.begin(), "bench");
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        int argc = static_cast<int>(args.size());
        opt::parse(argc, argv.data(), opt::Sweep | opt::Bench);
    };
    parsed({"--jobs", "4"});
    EXPECT_EQ(core::SweepRunner::resolveJobs(0), 4);
    opt::resetForTest();
    setenv("LADM_BENCH_SCALE", "0.25", 1);
    EXPECT_EQ(opt::number(opt::kBenchScale, 1.0), 0.25);
    for (const char *bad : {"abc", "", "0", "-1", "2x", "inf", "nan"}) {
        SCOPED_TRACE(bad);
        // An empty variable counts as unset; the flag form rejects "".
        if (*bad) {
            setenv("LADM_BENCH_SCALE", bad, 1);
            try {
                opt::number(opt::kBenchScale, 1.0);
                ADD_FAILURE() << "expected SimError";
            } catch (const SimError &e) {
                EXPECT_EQ(e.kind(), SimError::Kind::Config);
                EXPECT_NE(std::string(e.what()).find("LADM_BENCH_SCALE"),
                          std::string::npos);
            }
        }
        try {
            parsed({std::string("--bench-scale=") + bad});
            ADD_FAILURE() << "expected SimError";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimError::Kind::Config);
            EXPECT_NE(std::string(e.what()).find("--bench-scale"),
                      std::string::npos);
        }
    }
    unsetenv("LADM_BENCH_SCALE");
    EXPECT_THROW(parsed({"--jobs", "2.5"}), SimError);
    EXPECT_THROW(parsed({"--jobs", "1e12"}), SimError);
    EXPECT_THROW(parsed({"--jobs", "1000000000000"}), SimError);
    opt::resetForTest();

    setenv("LADM_BENCH_JOBS", "x", 1);
    try {
        core::SweepRunner::resolveJobs(0);
        ADD_FAILURE() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Config);
        EXPECT_NE(std::string(e.what()).find("LADM_BENCH_JOBS"),
                  std::string::npos);
    }
    EXPECT_EQ(core::SweepRunner::resolveJobs(3), 3); // flag wins
    unsetenv("LADM_BENCH_JOBS");
}

TEST(SweepRunner, TracingForcesSerialExecution)
{
    setenv("LADM_TRACE_OUT", "/tmp/ladm_trace_test.json", 1);
    EXPECT_EQ(core::SweepRunner::resolveJobs(8), 1);
    unsetenv("LADM_TRACE_OUT");
    EXPECT_EQ(core::SweepRunner::resolveJobs(8), 8);
}

TEST(SweepRunner, RecordsEveryRunInTelemetrySession)
{
    telemetry::session().resetForTest();
    // Runs are only recorded while a stats sink is armed.
    TelemetryOptions opts;
    opts.statsJsonPath = "/tmp/ladm_sweep_runner_stats.json";
    telemetry::session().configure(opts);
    const auto cells = smallGrid();
    const auto out = core::runSweep(cells, 4);
    EXPECT_EQ(out.size(), cells.size());
    EXPECT_EQ(telemetry::session().numRuns(), cells.size());
    telemetry::session().resetForTest();
}

} // namespace
} // namespace ladm
