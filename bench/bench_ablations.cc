/**
 * @file
 * Design-choice ablations called out in DESIGN.md:
 *   (a) input-size-aware tie-break on/off (Section III-D2);
 *   (b) RONCE forced onto RCL workloads (the ~8% RTWICE win the paper
 *       reports, which motivates CRB);
 *   (c) hierarchical topology vs a flat crossbar with the same aggregate
 *       inter-node bandwidth;
 *   (d) warp pipeline depth (engine modeling knob).
 */

#include "bench_util.hh"

#include "runtime/ladm_runtime.hh"
#include "sim/gpu_system.hh"

using namespace ladm;
using namespace ladm::bench;

namespace
{

/** Run LADM with the tie-break ablated. */
RunMetrics
runNoTieBreak(const std::string &name, const SystemConfig &cfg)
{
    auto w = workloads::makeWorkload(name, benchScale());
    GpuSystem sys(cfg);
    MallocRegistry reg(cfg.pageSize);
    w->allocateAll(reg);
    LadmRuntime runtime(cfg);
    runtime.setTieBreakLargest(false);
    runtime.compile(w->kernel());
    const auto plan = runtime.prepareLaunch(
        w->kernel(), w->dims(), w->argPcs(), reg, sys.mem().pageTable());
    auto trace = w->makeTrace(reg);
    const auto ks = sys.runKernel(w->dims(), *trace,
                                  plan.scheduler->assign(w->dims(), cfg),
                                  plan.policy);
    if (telemetry::TraceEmitter *tr = sys.traceBuffer())
        telemetry::session().recordTrace(std::move(*tr));
    RunMetrics m;
    m.cycles = ks.cycles();
    m.scheduler = plan.scheduler->name();
    return m;
}

} // namespace

int
benchMain(int argc, char **argv)
{
    const int jobs = parseJobsFlag(argc, argv);

    printHeaderLine("Ablations");
    const SystemConfig multi = presets::multiGpu4x4();
    SystemConfig flat = presets::multiGpuFlat(4, 180.0);

    // Everything -- standard cells and the custom tie-break ablation --
    // goes through one runner; results come back in submission order.
    core::SweepRunner::Options opts;
    opts.jobs = jobs;
    core::SweepRunner runner(opts);
    auto submitCell = [&](const core::SweepCell &c) {
        runner.submit([c] {
            auto w = workloads::makeWorkload(c.workload, c.scale);
            auto bundle = makeBundle(c.policy);
            return runExperiment(*w, *bundle, c.cfg, c.launches);
        });
    };

    const std::vector<std::string> a_names = {"Alexnet-FC-2", "LSTM-1"};
    const std::vector<std::string> b_names = {"SQ-GEMM", "CONV",
                                              "Alexnet-FC-2"};
    const std::vector<std::string> c_names = {"SQ-GEMM", "PageRank"};
    const std::vector<std::string> d_names = {"SQ-GEMM", "VecAdd"};

    for (const std::string &name : a_names) {
        submitCell(cell(name, Policy::LaspRtwice, multi));
        runner.submit([name, multi] { return runNoTieBreak(name, multi); });
    }
    for (const std::string &name : b_names) {
        submitCell(cell(name, Policy::LaspRtwice, multi));
        submitCell(cell(name, Policy::LaspRonce, multi));
    }
    for (const std::string &name : c_names) {
        submitCell(cell(name, Policy::Ladm, multi));
        submitCell(cell(name, Policy::Ladm, flat));
    }
    for (const std::string &name : d_names) {
        for (const int d : {1, 2, 3}) {
            SystemConfig cfg = presets::multiGpu4x4();
            cfg.warpPipelineDepth = d;
            submitCell(cell(name, Policy::Ladm, cfg));
        }
    }
    const std::vector<RunMetrics> results = runner.results();
    size_t i = 0;

    std::printf("\n(a) input-size-aware tie-break (DL GEMMs; B is the "
                "large matrix)\n");
    std::printf("%-14s %14s %16s %9s\n", "workload", "with (sched)",
                "without (sched)", "benefit");
    for (const std::string &name : a_names) {
        const RunMetrics &with = results[i++];
        const RunMetrics &without = results[i++];
        std::printf("%-14s %8llu %-5s %8llu %-7s %8.2fx\n", name.c_str(),
                    static_cast<unsigned long long>(with.cycles),
                    with.scheduler.substr(0, 5).c_str(),
                    static_cast<unsigned long long>(without.cycles),
                    without.scheduler.substr(0, 7).c_str(),
                    static_cast<double>(without.cycles) / with.cycles);
        std::fflush(stdout);
    }

    std::printf("\n(b) RONCE forced onto RCL workloads (CRB's reason to "
                "exist; paper: RTWICE ~8%% better there)\n");
    std::printf("%-14s %12s %12s %10s\n", "workload", "RTWICE", "RONCE",
                "RT/RO");
    std::vector<double> rt_vs_ro;
    for (const std::string &name : b_names) {
        const RunMetrics &rt = results[i++];
        const RunMetrics &ro = results[i++];
        rt_vs_ro.push_back(static_cast<double>(ro.cycles) / rt.cycles);
        std::printf("%-14s %12llu %12llu %9.2fx\n", name.c_str(),
                    static_cast<unsigned long long>(rt.cycles),
                    static_cast<unsigned long long>(ro.cycles),
                    rt_vs_ro.back());
        std::fflush(stdout);
    }
    std::printf("geomean RTWICE advantage on RCL: %.2fx\n",
                geomean(rt_vs_ro));

    std::printf("\n(c) hierarchy: ring-of-chiplets + switch vs flat "
                "crossbar, same per-node DRAM\n");
    std::printf("%-14s %14s %14s\n", "workload", "hierarchical",
                "flat-4x64SM");
    for (const std::string &name : c_names) {
        const RunMetrics &h = results[i++];
        const RunMetrics &f = results[i++];
        std::printf("%-14s %14llu %14llu\n", name.c_str(),
                    static_cast<unsigned long long>(h.cycles),
                    static_cast<unsigned long long>(f.cycles));
        std::fflush(stdout);
    }

    std::printf("\n(d) warp pipeline depth (engine knob; default 3)\n");
    std::printf("%-14s %10s %10s %10s\n", "workload", "depth1",
                "depth2", "depth3");
    for (const std::string &name : d_names) {
        std::printf("%-14s", name.c_str());
        for (const int d : {1, 2, 3}) {
            (void)d;
            const RunMetrics &m = results[i++];
            std::printf(" %10llu",
                        static_cast<unsigned long long>(m.cycles));
        }
        std::printf("\n");
        std::fflush(stdout);
    }
    return 0;
}

int
main(int argc, char **argv)
{
    // snapshot::runMain maps a graceful SIGINT/SIGTERM stop (checkpoint
    // flushed at the engine's safe point) to exit 75 and lets the
    // telemetry atexit finalizer publish partial sinks.
    return ladm::snapshot::runMain([&] { return benchMain(argc, argv); });
}
