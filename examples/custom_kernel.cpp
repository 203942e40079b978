/**
 * @file
 * Bring your own kernel: describe a CUDA kernel's global accesses with
 * the symbolic index DSL, run the LADM compiler pass over it, and see
 * the locality table plus the runtime's placement/scheduling plan.
 *
 * The kernel here is a batched matrix-vector multiply
 *   y[row] += A[row * K + m] * x[m]
 * with one thread per output row, blocked 1-D -- an intra-thread-
 * locality kernel the analysis must send down Table II row 6.
 */

#include <cstdio>

#include "config/options.hh"
#include "snapshot/snapshot.hh"
#include "config/presets.hh"
#include "runtime/ladm_runtime.hh"

using namespace ladm;
using namespace ladm::dsl;

int
runExample(int argc, char **argv)
{
    opt::parse(argc, argv, opt::Simulator);

    // 1. Describe the kernel: one access expression per global load or
    //    store, in prime components (Fig. 6 of the paper).
    const int64_t rows = 65536;
    const int64_t k_dim = 256;

    KernelDesc kernel;
    kernel.name = "gemv";
    kernel.numArgs = 3;
    const Expr row = bx * bdx + tx;
    kernel.accesses.push_back(
        {0, row * k_dim + m, 4, false, AccessFreq::Auto,
         "A[row*K+m]"});                                   // ITL walk
    kernel.accesses.push_back(
        {1, Expr(m), 4, false, AccessFreq::Auto, "x[m]"}); // broadcast
    kernel.accesses.push_back(
        {2, row, 4, true, AccessFreq::Once, "y[row]"});    // result

    // 2. "Compile": the static index analysis fills the locality table.
    const SystemConfig sys = presets::multiGpu4x4();
    LadmRuntime runtime(sys);
    runtime.compile(kernel);

    std::printf("locality table after compilation:\n");
    for (const auto &r : runtime.table().rows()) {
        std::printf("  arg%d %-12s row %d  stride=%s  (%s)\n", r.arg,
                    toString(r.cls.type), tableRow(r.cls.type),
                    r.cls.strideExpr.toString().c_str(), r.note.c_str());
    }

    // 3. Allocate "managed" memory and launch: the runtime binds the
    //    MallocPCs, places every structure, and picks the scheduler and
    //    cache policy.
    MallocRegistry reg(sys.pageSize);
    reg.mallocManaged(0x400, rows * k_dim * 4, "A");
    reg.mallocManaged(0x404, k_dim * 4, "x");
    reg.mallocManaged(0x408, rows * 4, "y");

    LaunchDims dims;
    dims.grid = {rows / 256, 1};
    dims.block = {256, 1};
    dims.loopTrips = k_dim;

    PageTable pt(sys.pageSize);
    const LaunchPlan plan = runtime.prepareLaunch(
        kernel, dims, {0x400, 0x404, 0x408}, reg, pt);

    std::printf("\nlaunch plan:\n  scheduler: %s (%s)\n  L2 policy: %s\n",
                plan.scheduler->name().c_str(),
                plan.schedulerReason.c_str(), toString(plan.policy));
    for (const auto &note : plan.notes)
        std::printf("  placement: %s\n", note.c_str());

    // 4. Inspect the resulting page mapping: the matrix is chunked
    //    kernel-wide so each node owns its threads' rows.
    std::printf("\nA's home nodes at 16 sample offsets:");
    const Allocation &a = reg.byPc(0x400);
    for (int i = 0; i < 16; ++i) {
        const Addr addr = a.base + a.size / 16 * i;
        std::printf(" %d", pt.lookup(addr));
    }
    std::printf("\n");
    return 0;
}

int
main(int argc, char **argv)
{
    // runMain renders a SimError (a bad flag included) as a structured
    // report instead of an unhandled-exception backtrace.
    return ladm::snapshot::runMain([&] { return runExample(argc, argv); });
}
