/**
 * @file
 * The CSR edge-walk trace against a reference per-lane loop: the walk
 * builds an active-lane mask and visits its set bits, and must emit the
 * accesses the straightforward loop over lanes emits, in the same
 * order, with the same return value, for every step of every warp.
 */

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "common/bitutils.hh"
#include "runtime/malloc_registry.hh"
#include "workloads/csr_walk.hh"
#include "workloads/registry.hh"

namespace ladm
{
namespace
{

/**
 * The per-lane walk the mask walk replaced: every lane tests its own
 * degree and skips when it has no edge m; row, column and edge-value
 * sectors are deduplicated against the previous one of their stream,
 * value sectors against every value sector of the step.
 */
bool
referenceStep(const workloads::CsrWalkTrace &t, TbId tb, int warp,
              int64_t step, std::vector<MemAccess> &out)
{
    const CsrGraph &g = t.graph();
    const workloads::CsrLayout &lay = t.layout();
    const int64_t v0 =
        tb * t.dims().threadsPerTb() + static_cast<int64_t>(warp) * 32;
    if (v0 >= g.numVertices)
        return false;
    const int lanes =
        static_cast<int>(std::min<int64_t>(32, g.numVertices - v0));
    if (step == 0) {
        Addr prev = kInvalidAddr;
        for (int l = 0; l < lanes; ++l) {
            const Addr sec = sectorBase(lay.rowBase + (v0 + l) * 8);
            if (sec != prev) {
                out.push_back({sec, false});
                prev = sec;
            }
        }
        return true;
    }
    const int64_t m = step - 1;
    bool any = false;
    Addr prev_col = kInvalidAddr;
    Addr prev_edge = kInvalidAddr;
    std::unordered_set<Addr> vals;
    for (int l = 0; l < lanes; ++l) {
        const int64_t v = v0 + l;
        if (m >= g.degree(v))
            continue;
        any = true;
        const int64_t e = g.rowPtr[v] + m;
        const Addr col_sec = sectorBase(lay.colBase + e * 4);
        if (col_sec != prev_col) {
            out.push_back({col_sec, false});
            prev_col = col_sec;
        }
        if (lay.edgeValBase != kInvalidAddr) {
            const Addr edge_sec = sectorBase(lay.edgeValBase + e * 4);
            if (edge_sec != prev_edge) {
                out.push_back({edge_sec, false});
                prev_edge = edge_sec;
            }
        }
        const Addr val_sec = sectorBase(lay.valBase + g.colIdx[e] * 4);
        if (vals.insert(val_sec).second)
            out.push_back({val_sec, lay.writesVal});
    }
    return any;
}

class CsrWalk : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CsrWalk, MatchesPerLaneReference)
{
    auto w = workloads::makeWorkload(GetParam(), 0.1);
    MallocRegistry reg;
    w->allocateAll(reg);
    auto trace = w->makeTrace(reg);
    auto *csr = dynamic_cast<workloads::CsrWalkTrace *>(trace.get());
    ASSERT_NE(csr, nullptr) << GetParam() << " is not a CSR walk";

    const LaunchDims dims = w->dims();
    const int warps = static_cast<int>(ceilDiv(dims.threadsPerTb(), 32));
    std::vector<MemAccess> got, want;
    uint64_t steps = 0, accesses = 0, partial = 0;
    for (TbId tb = 0; tb < dims.numTbs(); ++tb) {
        for (int wi = 0; wi < warps; ++wi) {
            for (int64_t step = 0;; ++step) {
                got.clear();
                want.clear();
                const bool more = csr->warpStep(tb, wi, step, got);
                const bool ref = referenceStep(*csr, tb, wi, step, want);
                ASSERT_EQ(more, ref)
                    << "tb " << tb << " warp " << wi << " step " << step;
                ASSERT_EQ(got.size(), want.size())
                    << "tb " << tb << " warp " << wi << " step " << step;
                for (size_t i = 0; i < got.size(); ++i) {
                    ASSERT_EQ(got[i].addr, want[i].addr)
                        << "tb " << tb << " warp " << wi << " step "
                        << step << " access " << i;
                    ASSERT_EQ(got[i].write, want[i].write)
                        << "tb " << tb << " warp " << wi << " step "
                        << step << " access " << i;
                }
                if (!ref)
                    break;
                ++steps;
                accesses += got.size();
                // A step where some lanes already ran out of edges is
                // where the mask walk skips lanes.
                const int64_t v0 = tb * dims.threadsPerTb() + wi * 32;
                const CsrGraph &g = csr->graph();
                for (int64_t v = v0;
                     step > 0 && v < std::min(v0 + 32, g.numVertices);
                     ++v) {
                    if (step - 1 >= g.degree(v)) {
                        ++partial;
                        break;
                    }
                }
            }
        }
    }
    EXPECT_GT(steps, 1000u);
    EXPECT_GT(accesses, steps);
    // BFS-relax's graph gives every vertex the same degree, so its lanes
    // run out together; the power-law graphs must exercise idle lanes.
    const CsrGraph &g = csr->graph();
    bool uniform = true;
    for (int64_t v = 1; v < g.numVertices; ++v)
        uniform = uniform && g.degree(v) == g.degree(0);
    if (!uniform) {
        EXPECT_GT(partial, steps / 10) << "too few steps with idle lanes";
    }
}

INSTANTIATE_TEST_SUITE_P(GraphWorkloads, CsrWalk,
                         ::testing::Values("PageRank", "BFS-relax", "SSSP",
                                           "SpMV-jds"),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

} // namespace
} // namespace ladm
