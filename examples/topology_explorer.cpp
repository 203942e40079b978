/**
 * @file
 * Topology explorer: the same workload under LADM across the machine
 * shapes the paper discusses -- monolithic, MCM-GPU package rings,
 * switch-connected multi-GPU, and the full hierarchical system --
 * showing how interconnect bandwidth and hierarchy shape the NUMA
 * penalty (the Fig. 4 design space, from the API).
 *
 * The six shapes run concurrently through core::SweepRunner
 * (--jobs N / LADM_BENCH_JOBS; tracing forces one worker).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "config/options.hh"
#include "snapshot/snapshot.hh"
#include "config/presets.hh"
#include "core/sweep_runner.hh"
#include "telemetry/session.hh"

using namespace ladm;

int
runExample(int argc, char **argv)
{
    opt::parse(argc, argv, opt::Simulator | opt::Telemetry | opt::Sweep,
               {}, "[options] [workload]");
    telemetry::session().configure(TelemetryOptions::resolve());
    const std::string name = argc > 1 ? argv[1] : "SQ-GEMM";

    struct Shape
    {
        const char *label;
        SystemConfig cfg;
    };
    const std::vector<Shape> shapes = {
        {"monolithic 256 SMs", presets::monolithic256()},
        {"MCM ring 1.4 TB/s", presets::mcmRing(4, 1400.0)},
        {"MCM ring 2.8 TB/s", presets::mcmRing(4, 2800.0)},
        {"4-GPU xbar 90 GB/s", presets::multiGpuFlat(4, 90.0)},
        {"4-GPU xbar 360 GB/s", presets::multiGpuFlat(4, 360.0)},
        {"hierarchical 4x4", presets::multiGpu4x4()},
    };

    std::vector<core::SweepCell> cells;
    for (const auto &s : shapes) {
        core::SweepCell c;
        c.workload = name;
        c.policy = Policy::Ladm;
        c.cfg = s.cfg;
        cells.push_back(c);
    }
    // --jobs / LADM_BENCH_JOBS picks the worker count.
    const std::vector<RunMetrics> results = core::runSweep(cells);

    std::printf("%s under LADM across machine shapes\n\n", name.c_str());
    std::printf("%-22s %12s %9s %10s %12s\n", "machine", "cycles",
                "vs mono", "off-chip", "inter-GPU MB");

    Cycles mono = 0;
    for (size_t i = 0; i < shapes.size(); ++i) {
        const Shape &s = shapes[i];
        const RunMetrics &m = results[i];
        if (mono == 0)
            mono = m.cycles;
        std::printf("%-22s %12llu %8.2fx %9.1f%% %12.1f\n", s.label,
                    static_cast<unsigned long long>(m.cycles),
                    static_cast<double>(mono) / m.cycles, m.offChipPct,
                    m.interGpuBytes / 1e6);
        // Per-node local/remote balance shows *where* the NUMA penalty
        // lands on each machine shape, not just how big it is.
        std::printf("%-22s  local ", "");
        for (const uint64_t v : m.nodeFetchLocal)
            std::printf(" %7llu", static_cast<unsigned long long>(v));
        std::printf("\n%-22s  remote", "");
        for (const uint64_t v : m.nodeFetchRemote)
            std::printf(" %7llu", static_cast<unsigned long long>(v));
        std::printf("\n");
    }

    std::printf("\n(pass a Table IV workload name to explore another "
                "one, e.g. %s PageRank)\n", argv[0]);
    telemetry::session().finalize();
    return 0;
}

int
main(int argc, char **argv)
{
    // runMain renders a SimError (a bad flag included) as a structured
    // report instead of an unhandled-exception backtrace.
    return ladm::snapshot::runMain([&] { return runExample(argc, argv); });
}
