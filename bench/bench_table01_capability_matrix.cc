/**
 * @file
 * Table I: which access patterns each technique captures. Each pattern
 * is probed with the workload that isolates it; a technique "captures"
 * the pattern when its off-chip traffic stays low (or, for the
 * input-size test, when it picks the right scheduler) on the 4x4
 * machine.
 */

#include "bench_util.hh"

using namespace ladm;
using namespace ladm::bench;

namespace
{

struct PatternProbe
{
    std::string pattern;
    std::string workload;
    /** Captured iff off-chip% below this. */
    double threshold;
};

} // namespace

int
benchMain(int argc, char **argv)
{
    const int jobs = parseJobsFlag(argc, argv);

    printHeaderLine("Table I -- which technique captures which pattern "
                    "(measured off-chip traffic)");

    const SystemConfig multi = presets::multiGpu4x4();
    const std::vector<std::pair<std::string, Policy>> policies = {
        {"Batch+FT", Policy::BatchFt},
        {"Kernel-wide", Policy::KernelWide},
        {"H-CODA", Policy::Coda},
        {"LADM", Policy::Ladm},
    };
    // Thresholds are generous: "captured" means the traffic the pattern
    // would otherwise generate is mostly gone.
    const std::vector<PatternProbe> probes = {
        {"Page alignment", "VecAdd", 10.0},
        {"TB-stride aware", "Histo-final", 25.0},
        {"Row sharing", "CONV", 25.0},
        {"Col sharing", "FWT-k2", 25.0},
        {"Adjacency (stencil)", "SRAD", 25.0},
        {"Intra-thread loc", "Kmeans-noTex", 10.0},
    };

    std::vector<core::SweepCell> cells;
    for (const auto &probe : probes)
        for (const auto &[pname, p] : policies)
            cells.push_back(cell(probe.workload, p, multi));
    const std::vector<RunMetrics> results = runGrid(cells, jobs);

    std::printf("%-22s", "pattern");
    for (const auto &[name, p] : policies)
        std::printf(" %13s", name.c_str());
    std::printf("\n");

    size_t idx = 0;
    for (const auto &probe : probes) {
        std::printf("%-22s", probe.pattern.c_str());
        for (size_t k = 0; k < policies.size(); ++k) {
            const RunMetrics &m = results[idx++];
            const bool captured = m.offChipPct < probe.threshold;
            std::printf("   %s (%5.1f%%)", captured ? "Y" : "n",
                        m.offChipPct);
        }
        std::printf("\n");
        std::fflush(stdout);
    }

    // Input-size awareness: with B the larger matrix the column binding
    // must win; only LADM adapts its scheduler to the input.
    std::printf("%-22s", "Input size aware");
    {
        auto w = workloads::makeWorkload("Alexnet-FC-2", benchScale());
        for (const auto &[pname, p] : policies) {
            auto bundle = makeBundle(p);
            MallocRegistry reg;
            PageTable pt(multi.pageSize);
            w = workloads::makeWorkload("Alexnet-FC-2", benchScale());
            w->allocateAll(reg);
            const auto plan =
                bundle->prepare(w->kernel(), w->dims(), w->argPcs(), reg,
                                pt, multi);
            const bool adapts = plan.scheduler->name() == "col-binding";
            std::printf("   %s (%7s)", adapts ? "Y" : "n",
                        plan.scheduler->name().substr(0, 7).c_str());
        }
        std::printf("\n");
    }

    std::printf("\npaper's Table I: LADM captures every row; Batch+FT "
                "only strides+ITL;\n  kernel-wide only alignment, row "
                "sharing, adjacency; CODA only alignment.\n");
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
