/**
 * @file
 * Graph analytics on a NUMA GPU: why intra-thread-locality workloads
 * want cache-remote-once. Runs PageRank over a synthetic scale-free
 * graph under every policy and prints the L2 traffic-class picture that
 * motivates CRB (Fig. 8 / Fig. 11 of the paper).
 */

#include <cstdio>

#include "config/options.hh"
#include "snapshot/snapshot.hh"
#include "config/presets.hh"
#include "core/experiment.hh"
#include "workloads/registry.hh"

using namespace ladm;

int
runExample(int argc, char **argv)
{
    opt::parse(argc, argv, opt::Simulator);
    const SystemConfig multi = presets::multiGpu4x4();

    auto report = [&](Policy p) {
        auto w = workloads::makeWorkload("PageRank");
        const RunMetrics m = runExperiment(*w, p, multi);
        std::printf("%-12s %10llu cycles  off-chip %5.1f%%  L2 %4.1f%%  "
                    "policy %s\n",
                    m.policy.c_str(),
                    static_cast<unsigned long long>(m.cycles),
                    m.offChipPct, m.l2HitRate * 100.0,
                    toString(m.insertPolicy));
        return m;
    };

    std::printf("PageRank, scale-free graph, 4 GPUs x 4 chiplets\n\n");
    report(Policy::BaselineRr);
    report(Policy::BatchFt);
    report(Policy::KernelWide);
    report(Policy::Coda);
    const RunMetrics rt = report(Policy::LaspRtwice);
    const RunMetrics crb = report(Policy::Ladm);

    std::printf("\nL2 traffic classes (LASP placement):\n");
    std::printf("%-14s %12s %12s %10s %10s\n", "class", "RTWICE acc",
                "CRB acc", "RT hit", "CRB hit");
    for (int c = 0; c < kNumTrafficClasses; ++c) {
        std::printf("%-14s %12llu %12llu %9.1f%% %9.1f%%\n",
                    toString(static_cast<TrafficClass>(c)),
                    static_cast<unsigned long long>(rt.classAccesses[c]),
                    static_cast<unsigned long long>(crb.classAccesses[c]),
                    100.0 * rt.classHitRate[c],
                    100.0 * crb.classHitRate[c]);
    }

    std::printf("\nCRB selected %s for this ITL kernel: the graph's "
                "edge lists are walked once\nper vertex, so home-side "
                "copies of remote data only displace useful lines.\n",
                toString(crb.insertPolicy));
    return 0;
}

int
main(int argc, char **argv)
{
    // runMain renders a SimError (a bad flag included) as a structured
    // report instead of an unhandled-exception backtrace.
    return ladm::snapshot::runMain([&] { return runExample(argc, argv); });
}
