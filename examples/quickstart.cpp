/**
 * @file
 * Quickstart: simulate one workload (the Fig. 6 tiled GEMM) on the
 * paper's 4-GPU x 4-chiplet machine under three management policies and
 * report what LADM buys you.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 *
 * Telemetry: every sink flag from telemetry (see docs/observability.md)
 * works here, e.g.
 *   ./build/examples/quickstart --stats-json stats.json --trace-out t.json
 */

#include <cstdio>

#include "config/options.hh"
#include "config/presets.hh"
#include "core/experiment.hh"
#include "snapshot/snapshot.hh"
#include "telemetry/session.hh"
#include "workloads/registry.hh"

using namespace ladm;

int
runExample(int argc, char **argv)
{
    opt::parse(argc, argv, opt::Simulator | opt::Telemetry);
    telemetry::session().configure(TelemetryOptions::resolve());
    // The machine: 4 discrete GPUs x 4 chiplets, 256 SMs (Table III).
    // Its shards field stays 0, so --shards N / LADM_SHARDS runs it on
    // the sharded PDES engine (1, the default, is the serial reference).
    const SystemConfig multi = presets::multiGpu4x4();
    // The yardstick: a hypothetical monolithic 256-SM GPU.
    const SystemConfig mono = presets::monolithic256();

    auto workload = workloads::makeWorkload("SQ-GEMM");

    std::printf("workload: %s (%lld threadblocks)\n",
                workload->name().c_str(),
                static_cast<long long>(workload->dims().numTbs()));

    const RunMetrics mono_m = runExperiment(*workload, Policy::KernelWide,
                                            mono);
    std::printf("\n%-14s %14s %10s %9s %8s\n", "policy", "cycles",
                "vs mono", "off-chip", "L2 hit");

    auto report = [&](Policy p) {
        const RunMetrics m = runExperiment(*workload, p, multi);
        // "vs mono" = cycles_mono / cycles_policy: 1.0 means the NUMA
        // machine matches the idealized monolithic GPU.
        std::printf("%-14s %14llu %9.2fx %8.1f%% %7.1f%%\n",
                    m.policy.c_str(),
                    static_cast<unsigned long long>(m.cycles),
                    m.speedupOver(mono_m), m.offChipPct,
                    m.l2HitRate * 100.0);
        return m;
    };

    const RunMetrics coda = report(Policy::Coda);
    const RunMetrics ladm = report(Policy::Ladm);
    std::printf("%-14s %14llu %9.2fx %8.1f%% %7.1f%%\n", "monolithic",
                static_cast<unsigned long long>(mono_m.cycles), 1.0, 0.0,
                mono_m.l2HitRate * 100.0);

    std::printf("\nLADM vs H-CODA: %.2fx faster, %.1fx less off-chip "
                "traffic\n",
                static_cast<double>(coda.cycles) / ladm.cycles,
                ladm.fetchRemote
                    ? static_cast<double>(coda.fetchRemote) /
                          ladm.fetchRemote
                    : 0.0);

    // Where the LADM run's traffic went, node by node (from the
    // telemetry registry that every component publishes into).
    std::printf("\nper-node traffic under LADM (local / remote "
                "fetches):\n");
    for (size_t n = 0; n < ladm.nodeFetchLocal.size(); ++n) {
        std::printf("  node%-2zu %10llu / %-10llu\n", n,
                    static_cast<unsigned long long>(
                        ladm.nodeFetchLocal[n]),
                    static_cast<unsigned long long>(
                        ladm.nodeFetchRemote[n]));
    }

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
