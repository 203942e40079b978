/**
 * @file
 * Table III: the simulated machine configuration. Printed from the
 * actual presets so the table can never drift from the code.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace ladm;

int
benchMain(int argc, char **argv)
{
    // Nothing here simulates; the bench options are accepted for
    // uniformity with every other bench.
    bench::parseJobsFlag(argc, argv);

    const SystemConfig c = presets::multiGpu4x4();
    const SystemConfig mono = presets::monolithic256();

    std::printf("Table III -- multi-GPU configuration (from "
                "presets::multiGpu4x4)\n\n");
    std::printf("%-26s %d GPUs, %d chiplets per GPU\n", "#GPUs",
                c.numGpus, c.chipletsPerGpu);
    std::printf("%-26s %d SMs (%d per GPU, %d per chiplet)\n", "#SMs",
                c.totalSms(), c.totalSms() / c.numGpus, c.smsPerChiplet);
    std::printf("%-26s %d warps, %d resident TBs, %.1f GHz, "
                "%llu KB L1 per SM\n",
                "SM configuration", c.warpSlotsPerSm,
                c.maxResidentTbsPerSm, c.clockGhz,
                static_cast<unsigned long long>(c.l1SizePerSm / 1024));
    std::printf("%-26s %llu MB total (%llu MB per chiplet), %d banks, "
                "%d-way, dynamic shared with remote caching%s\n",
                "L2 cache",
                static_cast<unsigned long long>(
                    c.l2SizePerChiplet * c.numNodes() / (1 << 20)),
                static_cast<unsigned long long>(c.l2SizePerChiplet /
                                                (1 << 20)),
                c.l2BanksPerChiplet * c.numNodes(), c.l2Assoc,
                c.remoteCachingL2 ? "" : " (disabled)");
    std::printf("%-26s %.0f GB/s total\n", "Intra-chiplet connect",
                c.intraChipletXbarGBs);
    std::printf("%-26s bi-directional ring, %.0f GB/s per GPU, "
                "%llu-cycle hops\n",
                "Inter-chiplet connect", c.interChipletRingGBs,
                static_cast<unsigned long long>(c.ringHopLatencyCycles));
    std::printf("%-26s crossbar, %.0f GB/s per link, %llu-cycle "
                "traversal\n",
                "Inter-GPU connect", c.interGpuLinkGBs,
                static_cast<unsigned long long>(c.switchLatencyCycles));
    std::printf("%-26s %.0f GB/s total\n", "Monolithic interconnect",
                mono.intraChipletXbarGBs);
    std::printf("%-26s %.0f GB/s per chiplet (%.0f GB/s per GPU), "
                "%d channels, %llu-cycle latency\n",
                "Memory BW", c.memBwPerChipletGBs,
                c.memBwPerChipletGBs * c.chipletsPerGpu,
                c.dramChannelsPerChiplet,
                static_cast<unsigned long long>(c.dramLatencyCycles));
    std::printf("%-26s %llu B pages, %s coherence flush at kernel "
                "boundaries\n",
                "Memory system",
                static_cast<unsigned long long>(c.pageSize),
                c.flushL2BetweenKernels ? "software" : "hardware (no)");

    std::printf("\npaper's Table III: 4 GPUs x 4 chiplets, 256 SMs, "
                "16MB L2, 720 GB/s ring,\n  180 GB/s links, 11.2 TB/s "
                "monolithic crossbar, 180 GB/s HBM per chiplet.\n");
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
