/**
 * @file
 * Kernel descriptors: the LADM-visible shape of a CUDA kernel.
 *
 * A kernel is its launch geometry plus, for every global-array argument,
 * the symbolic index expressions of the accesses the kernel body performs
 * (already expanded to prime components, as the paper's compiler pass
 * produces from CUDA source -- see Fig. 6). This is the input to the
 * static index analysis and, bound to concrete launch dims, to the
 * workload trace generators.
 */

#ifndef LADM_KERNEL_KERNEL_DESC_HH
#define LADM_KERNEL_KERNEL_DESC_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "kernel/expr.hh"

namespace ladm
{

/** 2-D extent (z is never used by the paper's analysis). */
struct Dim2
{
    int64_t x = 1;
    int64_t y = 1;

    int64_t count() const { return x * y; }
};

/** How often an access site executes relative to the outer loop. */
enum class AccessFreq
{
    Auto,         ///< per-iteration iff the index references m
    PerIteration, ///< inside the loop body
    Once,         ///< outside the loop (issued after the final iteration)
};

/** One global-array access site inside a kernel body. */
struct ArrayAccess
{
    /** Kernel argument index the pointer came in through. */
    int arg = 0;
    /** Element index expression over prime variables. */
    Expr index;
    /** sizeof the accessed element (4 = float/int, 8 = double). */
    Bytes elemSize = 4;
    /** Store rather than load. */
    bool isWrite = false;
    /** Execution frequency relative to the kernel's outer loop. */
    AccessFreq freq = AccessFreq::Auto;
    /** Source annotation for reports ("A[Row*W+m*T+tx]"). */
    std::string note{};

    /** Resolve Auto: per-iteration iff the index references m. */
    bool
    perIteration() const
    {
        if (freq == AccessFreq::Auto)
            return index.dependsOn(Var::M);
        return freq == AccessFreq::PerIteration;
    }
};

/** Static shape of one kernel. */
struct KernelDesc
{
    std::string name;
    std::vector<ArrayAccess> accesses;
    /** Number of pointer arguments. */
    int numArgs = 0;
};

/** Concrete launch geometry: dims plus the outer-loop trip count. */
struct LaunchDims
{
    Dim2 grid;
    Dim2 block;
    /**
     * Iterations of the kernel's outermost loop. 0 means the kernel body
     * has no loop (each access executes once with m = 0).
     */
    int64_t loopTrips = 0;

    int64_t numTbs() const { return grid.count(); }
    int64_t threadsPerTb() const { return block.count(); }
    bool is2d() const { return grid.y > 1; }

    /** Bind the dims (and optionally ids) into an evaluation Binding. */
    Binding
    binding(int64_t tx = 0, int64_t ty = 0, int64_t bx = 0, int64_t by = 0,
            int64_t m = 0) const
    {
        return makeBinding(tx, ty, bx, by, block.x, block.y, grid.x,
                           grid.y, m);
    }

    /** Linear threadblock id (row-major). */
    TbId tbId(int64_t bx, int64_t by) const { return by * grid.x + bx; }
    int64_t bxOf(TbId tb) const { return tb % grid.x; }
    int64_t byOf(TbId tb) const { return tb / grid.x; }
};

} // namespace ladm

#endif // LADM_KERNEL_KERNEL_DESC_HH
