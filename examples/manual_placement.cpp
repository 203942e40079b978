/**
 * @file
 * Hand-tuned placement, the way Section IV-C did it on a real DGX-1:
 * the programmer calls the placement mechanisms directly (the simulated
 * cudaMemAdvise equivalent) and pins threadblock rows to GPUs, then
 * compares against what LADM derives automatically -- the "Locality
 * Descriptor"-style APIs of Table I, expressed through this library.
 */

#include <cstdio>

#include "config/options.hh"
#include "snapshot/snapshot.hh"
#include "config/presets.hh"
#include "core/experiment.hh"
#include "mem/placement.hh"
#include "sched/binding.hh"
#include "sim/gpu_system.hh"
#include "workloads/registry.hh"

using namespace ladm;

namespace
{

/** A hand-written policy: the programmer knows GEMM's sharing and spells
 *  it out with explicit mechanism calls. */
class HandTunedGemm : public PolicyBundle
{
  public:
    std::string name() const override { return "hand-tuned"; }

    LaunchPlan
    prepare(const KernelDesc &kernel, const LaunchDims &dims,
            const std::vector<uint64_t> &arg_pcs,
            const MallocRegistry &reg, PageTable &pt,
            const SystemConfig &sys) override
    {
        LaunchPlan plan;
        const auto nodes = allNodes(sys.numNodes());
        const Allocation &a = reg.byPc(arg_pcs[0]);
        const Allocation &b = reg.byPc(arg_pcs[1]);
        const Allocation &c = reg.byPc(arg_pcs[2]);

        // "cudaMemAdvise(A, rows-by-node)": whole row strips per node.
        const Bytes row_strip = a.size / sys.numNodes();
        placeContiguousChunks(pt, a.base, a.size, nodes, row_strip);
        // B is column-shared: interleave at Eq. 1's granule.
        placeInterleaved(
            pt, b.base, b.size, nodes,
            strideInterleaveGranule(b.size / dims.grid.y,
                                    sys.numNodes(), pt.pageSize()));
        // C with its writers.
        placeContiguousChunks(pt, c.base, c.size, nodes, 0);

        plan.scheduler = std::make_shared<RowBindingScheduler>();
        plan.schedulerReason = "hand annotation: bind grid rows";
        plan.notes = {"A: hand row strips", "B: hand column interleave",
                      "C: hand chunks"};
        return plan;
    }
};

} // namespace

int
runExample(int argc, char **argv)
{
    opt::parse(argc, argv, opt::Simulator);
    const SystemConfig multi = presets::multiGpu4x4();

    std::printf("tiled GEMM: hand-tuned APIs vs automatic LADM\n\n");
    std::printf("%-12s %12s %10s %9s\n", "policy", "cycles", "off-chip",
                "L2 hit");

    HandTunedGemm hand;
    auto w1 = workloads::makeWorkload("SQ-GEMM");
    const RunMetrics manual = runExperiment(*w1, hand, multi);
    std::printf("%-12s %12llu %9.1f%% %8.1f%%\n", manual.policy.c_str(),
                static_cast<unsigned long long>(manual.cycles),
                manual.offChipPct, manual.l2HitRate * 100.0);

    auto w2 = workloads::makeWorkload("SQ-GEMM");
    const RunMetrics autom = runExperiment(*w2, Policy::Ladm, multi);
    std::printf("%-12s %12llu %9.1f%% %8.1f%%\n", autom.policy.c_str(),
                static_cast<unsigned long long>(autom.cycles),
                autom.offChipPct, autom.l2HitRate * 100.0);

    const double vs_hand =
        static_cast<double>(manual.cycles) / autom.cycles;
    if (vs_hand >= 1.0) {
        std::printf("\nLADM's pitch (Table I): the transparency of "
                    "automatic analysis with the\nlocality quality of "
                    "hand annotations -- here %.0f%% ahead of hand "
                    "tuning\nwith zero programmer effort.\n",
                    100.0 * (vs_hand - 1.0));
    } else {
        std::printf("\nLADM's pitch (Table I): the transparency of "
                    "automatic analysis with the\nlocality quality of "
                    "hand annotations -- here within %.0f%% of hand "
                    "tuning\nwith zero programmer effort.\n",
                    100.0 * (1.0 / vs_hand - 1.0));
    }
    return 0;
}

int
main(int argc, char **argv)
{
    // runMain renders a SimError (a bad flag included) as a structured
    // report instead of an unhandled-exception backtrace.
    return ladm::snapshot::runMain([&] { return runExample(argc, argv); });
}
