/**
 * @file
 * Table II: the index-analysis classification itself. Runs Algorithm 1
 * over the canonical index equations and prints the detected locality
 * type plus the scheduling/placement/caching actions LASP derives --
 * the same rows as the paper's Table II.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "compiler/index_analysis.hh"
#include "kernel/expr.hh"

using namespace ladm;
using namespace ladm::dsl;

namespace
{

struct Row
{
    std::string label;
    Expr index;
    bool grid2d;
};

const char *
schedulingAction(LocalityType t)
{
    switch (t) {
      case LocalityType::NoLocality: return "Align-aware";
      case LocalityType::RowHoriz:
      case LocalityType::RowVert: return "Row-binding";
      case LocalityType::ColHoriz:
      case LocalityType::ColVert: return "Col-binding";
      case LocalityType::IntraThread:
      case LocalityType::Unclassified: return "Kernel-wide";
    }
    return "?";
}

const char *
placementAction(LocalityType t)
{
    switch (t) {
      case LocalityType::NoLocality: return "Stride-aware";
      case LocalityType::RowHoriz:
      case LocalityType::ColHoriz: return "Row-based";
      case LocalityType::RowVert:
      case LocalityType::ColVert: return "Col-based";
      case LocalityType::IntraThread:
      case LocalityType::Unclassified: return "Kernel-wide";
    }
    return "?";
}

const char *
cachePolicy(LocalityType t)
{
    return t == LocalityType::IntraThread ? "RONCE" : "RTWICE";
}

} // namespace

int
benchMain(int argc, char **argv)
{
    // Nothing here simulates; the bench options are accepted for
    // uniformity with every other bench.
    bench::parseJobsFlag(argc, argv);

    std::printf("Table II -- index equations, detected locality types, "
                "and LASP actions\n\n");

    const std::vector<Row> rows = {
        {"loopInv(bx,by) + stride*m  (no locality, strided)",
         (by * bdy + ty) * (gdx * bdx) + bx * bdx + tx +
             m * (gdx * bdx) * (gdy * bdy),
         true},
        {"loopInv(by) + loopVar(m)   (row-loc, horiz shared)",
         (by * 16 + ty) * (gdx * bdx) + m * 16 + tx, true},
        {"loopInv(bx) + loopVar(m)   (col-loc, horiz shared)",
         bx * 1024 + tx + m * bdx, true},
        {"loopInv(by) + loopVar(m,gDimx)  (row-loc, vert shared)",
         by * 16 + ty + m * gdx * bdx, true},
        {"loopInv(bx) + loopVar(m,gDimx)  (col-loc, vert shared)",
         (m * 16 + ty) * (gdx * bdx) + bx * 16 + tx, true},
        {"loopVar(m) = m             (intra-thread locality)",
         (bx * bdx + tx) * 16 + m, false},
        {"X[Y[tid]]                  (unclassified)",
         bx * bdx + tx + Expr::dataDep(), false},
    };

    std::printf("%-3s %-52s %-12s %-12s %-12s %-7s\n", "row",
                "index equation family", "type", "scheduling",
                "placement", "cache");
    for (const auto &r : rows) {
        const auto c = classifyAccess(r.index, r.grid2d);
        std::printf("%-3d %-52s %-12s %-12s %-12s %-7s\n",
                    tableRow(c.type), r.label.c_str(), toString(c.type),
                    schedulingAction(c.type), placementAction(c.type),
                    cachePolicy(c.type));
    }

    std::printf("\nexpected (paper): rows 1-7 in this order -- NL / "
                "RCL-row-h / RCL-col-h /\n  RCL-row-v / RCL-col-v / ITL "
                "/ unclassified.\n");
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
