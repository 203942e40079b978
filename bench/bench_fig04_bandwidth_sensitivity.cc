/**
 * @file
 * Fig. 4: bandwidth sensitivity of the state-of-the-art techniques.
 *
 * Four-node NUMA systems (64 SMs per node) under five interconnects --
 * NVSwitch-like crossbars at 90/180/360 GB/s per link and MCM-style rings
 * at 1.4/2.8 TB/s per GPU -- running Baseline-RR [79], Batch+FT-optimal
 * [5], kernel-wide partitioning [51], and CODA [36]. Each bar is the
 * geometric-mean performance over the workload set, normalized to a
 * hypothetical monolithic GPU with the same 256 SMs.
 */

#include "bench_util.hh"

using namespace ladm;
using namespace ladm::bench;

int
benchMain(int argc, char **argv)
{
    const int jobs = parseJobsFlag(argc, argv);

    printHeaderLine("Fig. 4 -- bandwidth sensitivity of prior NUMA-GPU "
                    "techniques (vs monolithic)");

    struct Point
    {
        std::string name;
        SystemConfig cfg;
    };
    std::vector<Point> points;
    for (const double gbs : {90.0, 180.0, 360.0})
        points.push_back({"xbar-" + std::to_string(int(gbs)) + "GB/s",
                          presets::multiGpuFlat(4, gbs)});
    for (const double gbs : {1400.0, 2800.0})
        points.push_back({"ring-" + std::to_string(gbs / 1000.0).substr(0, 3) +
                              "TB/s",
                          presets::mcmRing(4, gbs)});

    const std::vector<std::pair<std::string, Policy>> policies = {
        {"Baseline-RR", Policy::BaselineRr},
        {"Batch+FT-opt", Policy::BatchFt},
        {"Kernel-wide", Policy::KernelWide},
        {"CODA", Policy::Coda},
    };

    const auto names = representativeWorkloads();
    const SystemConfig mono = presets::monolithic256();

    // One grid: monolithic references first, then every
    // (config, policy, workload) cell in print order.
    std::vector<core::SweepCell> cells;
    for (const auto &w : names)
        cells.push_back(cell(w, Policy::KernelWide, mono));
    for (const auto &pt : points)
        for (const auto &[pname, p] : policies)
            for (const auto &w : names)
                cells.push_back(cell(w, p, pt.cfg));
    const std::vector<RunMetrics> results = runGrid(cells, jobs);
    CsvSink csv("fig04");
    for (const RunMetrics &m : results)
        csv.add(m);

    std::vector<Cycles> mono_cycles;
    for (size_t i = 0; i < names.size(); ++i)
        mono_cycles.push_back(results[i].cycles);

    std::printf("%-16s", "config");
    for (const auto &[pname, p] : policies)
        std::printf(" %14s", pname.c_str());
    std::printf("\n");

    size_t idx = names.size();
    for (const auto &pt : points) {
        std::printf("%-16s", pt.name.c_str());
        for (size_t k = 0; k < policies.size(); ++k) {
            std::vector<double> rel;
            for (size_t i = 0; i < names.size(); ++i) {
                const RunMetrics &m = results[idx++];
                rel.push_back(static_cast<double>(mono_cycles[i]) /
                              m.cycles);
            }
            std::printf(" %14.3f", geomean(rel));
        }
        std::printf("\n");
        std::fflush(stdout);
    }

    std::printf("\npaper shape: every technique improves with bandwidth;"
                "\n  CODA leads the pack but stays well below 1.0 on the"
                "\n  cheap interconnects (52%% at xbar-90, ~80%% at "
                "ring-1.4T).\n");
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
