/**
 * @file
 * `explain_kernel`: the LADM compiler as a command-line tool. Feed it a
 * kernel description (a file path, or nothing to analyze the built-in
 * Fig. 6 GEMM) and it prints the locality table, the Table II row of
 * every access, and the launch plan LASP would derive for a given grid.
 *
 *   ./build/examples/explain_kernel my_kernel.ladm [gdx gdy bdx bdy trips]
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "compiler/parser.hh"
#include "config/options.hh"
#include "snapshot/snapshot.hh"
#include "config/presets.hh"
#include "runtime/ladm_runtime.hh"

using namespace ladm;

namespace
{

const char *kDefaultKernel = R"(# Fig. 6: tiled dense matrix multiply.
kernel sgemm(A, B, C) {
    let W   = gridDim.x * blockDim.x;
    let Row = blockIdx.y * 16 + threadIdx.y;
    let Col = blockIdx.x * 16 + threadIdx.x;
    loop m {
        read A[Row * W + m * 16 + threadIdx.x] : f32;
        read B[(m * 16 + threadIdx.y) * W + Col] : f32;
    }
    write C[Row * W + Col] : f32;
}
)";

} // namespace

int
runExample(int argc, char **argv)
{
    opt::parse(argc, argv, opt::Simulator, {},
               "[options] [file [grid-x grid-y block-x block-y trips]]");
    std::string source = kDefaultKernel;
    if (argc > 1) {
        std::ifstream in(argv[1]);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n", argv[1]);
            return 1;
        }
        std::stringstream ss;
        ss << in.rdbuf();
        source = ss.str();
    } else {
        std::printf("(no file given; explaining the built-in Fig. 6 "
                    "GEMM)\n\n%s\n", kDefaultKernel);
    }

    const KernelDesc kernel = parseKernel(source);

    LaunchDims dims;
    dims.grid = {argc > 2 ? std::atoll(argv[2]) : 44,
                 argc > 3 ? std::atoll(argv[3]) : 44};
    dims.block = {argc > 4 ? std::atoll(argv[4]) : 16,
                  argc > 5 ? std::atoll(argv[5]) : 16};
    dims.loopTrips = argc > 6 ? std::atoll(argv[6]) : 44;

    const SystemConfig sys = presets::multiGpu4x4();
    LadmRuntime runtime(sys);
    runtime.compile(kernel);

    std::printf("kernel '%s', %d args\n", kernel.name.c_str(),
                kernel.numArgs);
    std::printf("\nlocality table:\n");
    for (const auto &r : runtime.table().rows()) {
        std::printf("  arg%-2d %-28s %-12s (Table II row %d)  stride=%s\n",
                    r.arg, r.note.c_str(), toString(r.cls.type),
                    tableRow(r.cls.type),
                    r.cls.strideExpr.toString().c_str());
    }

    // Fabricate proportionally-sized allocations to preview the plan
    // (each argument sized by the span its accesses reach).
    MallocRegistry reg(sys.pageSize);
    std::vector<uint64_t> pcs;
    for (int a = 0; a < kernel.numArgs; ++a) {
        Bytes size = sys.pageSize;
        for (const auto &acc : kernel.accesses) {
            if (acc.arg != a || acc.index.dependsOn(Var::DataDep))
                continue;
            const Binding hi = dims.binding(
                dims.block.x - 1, dims.block.y - 1, dims.grid.x - 1,
                dims.grid.y - 1,
                dims.loopTrips > 0 ? dims.loopTrips - 1 : 0);
            const int64_t max_elem = acc.index.eval(hi) + 1;
            size = std::max<Bytes>(
                size, static_cast<Bytes>(max_elem) * acc.elemSize);
        }
        pcs.push_back(0x1000 + a);
        reg.mallocManaged(pcs.back(), size, "arg" + std::to_string(a));
    }

    PageTable pt(sys.pageSize);
    const LaunchPlan plan =
        runtime.prepareLaunch(kernel, dims, pcs, reg, pt);

    std::printf("\nlaunch plan for grid (%lld,%lld) block (%lld,%lld) "
                "trips %lld on %s:\n",
                static_cast<long long>(dims.grid.x),
                static_cast<long long>(dims.grid.y),
                static_cast<long long>(dims.block.x),
                static_cast<long long>(dims.block.y),
                static_cast<long long>(dims.loopTrips),
                sys.name.c_str());
    std::printf("  scheduler: %s  (%s)\n  L2 policy: %s\n",
                plan.scheduler->name().c_str(),
                plan.schedulerReason.c_str(), toString(plan.policy));
    for (const auto &n : plan.notes)
        std::printf("  placement: %s\n", n.c_str());
    return 0;
}

int
main(int argc, char **argv)
{
    // runMain renders a SimError (a bad flag included) as a structured
    // report instead of an unhandled-exception backtrace.
    return ladm::snapshot::runMain([&] { return runExample(argc, argv); });
}
