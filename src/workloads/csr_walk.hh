/**
 * @file
 * The CSR edge-walk trace of the graph workloads (PageRank, BFS-relax,
 * SSSP, SpMV-jds) and the per-step sector dedup of its gather stream.
 */

#ifndef LADM_WORKLOADS_CSR_WALK_HH
#define LADM_WORKLOADS_CSR_WALK_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "kernel/kernel_desc.hh"
#include "mem/address.hh"
#include "sim/trace_source.hh"
#include "workloads/graph_gen.hh"

namespace ladm
{
namespace workloads
{

/**
 * Per-step (sector, write) dedup for LARGE batches: a linear scan of
 * the batch is quadratic in its size, which the 32-lane CSR walk (up
 * to ~100 sectors per step) pays on every step -- it showed up as the
 * single hottest workload function in profiles. Generation stamping
 * makes begin() O(1) (no clearing), and first-occurrence order --
 * which fixes the order accesses issue and book bandwidth -- is
 * preserved exactly, so results are bit-identical to the scan.
 */
class SectorBatch
{
  public:
    /** Start a new step's batch; previous entries expire in O(1). */
    void begin() { ++gen_; }

    void
    push(std::vector<MemAccess> &out, Addr addr, bool write)
    {
        const Addr sec = sectorBase(addr);
        // Sector addresses are 32B-aligned, so bit 0 is free to carry
        // the write flag: one word keys the whole (sector, rw) pair.
        const uint64_t key = sec | static_cast<uint64_t>(write);
        size_t i = static_cast<size_t>(
            (key * 0x9e3779b97f4a7c15ULL) >> (64 - kBits));
        for (;;) {
            Slot &s = slots_[i];
            if (s.gen != gen_) {
                s.gen = gen_;
                s.key = key;
                out.push_back({sec, write});
                return;
            }
            if (s.key == key)
                return;
            i = (i + 1) & (kSlots - 1);
        }
    }

  private:
    static constexpr int kBits = 9; ///< 512 slots >> max batch (~100)
    static constexpr size_t kSlots = size_t{1} << kBits;
    struct Slot
    {
        uint64_t gen = 0;
        uint64_t key = 0;
    };
    std::array<Slot, kSlots> slots_{};
    uint64_t gen_ = 0;
};

/** Where a CSR walk's arrays live in the simulated address space. */
struct CsrLayout
{
    Addr rowBase = 0;                ///< 8-byte row pointers
    Addr colBase = 0;                ///< 4-byte column indices
    Addr valBase = 0;                ///< 4-byte per-vertex values
    Addr edgeValBase = kInvalidAddr; ///< 4-byte edge values, if weighted
    bool writesVal = false;          ///< the gather is a scatter-write
};

/**
 * CSR edge-walk: thread t owns vertex t; step 0 reads its row pointer,
 * step m >= 1 reads edge m-1 of every still-active lane (the ITL walk
 * through colIdx, an optional parallel edge-value array, and a random
 * gather from the per-vertex value array).
 */
class CsrWalkTrace : public TraceSource
{
  public:
    CsrWalkTrace(const CsrGraph &g, const LaunchDims &dims,
                 const CsrLayout &layout)
        : g_(g), dims_(dims), layout_(layout)
    {
    }

    bool warpStep(TbId tb, int warp, int64_t step,
                  std::vector<MemAccess> &out) override;

    double instrsPerStep() const override { return 12.0; }

    const CsrGraph &graph() const { return g_; }
    const LaunchDims &dims() const { return dims_; }
    const CsrLayout &layout() const { return layout_; }

  private:
    const CsrGraph &g_;
    LaunchDims dims_;
    CsrLayout layout_;
    SectorBatch batch_;
};

} // namespace workloads
} // namespace ladm

#endif // LADM_WORKLOADS_CSR_WALK_HH
