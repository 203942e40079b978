/**
 * @file
 * PageTable: virtual address -> home NUMA node mapping.
 *
 * Hot-path layout (the simulator translates once per L1-missing sector,
 * so this structure bounds simulator throughput):
 *
 *  1. A direct-mapped *home-translation TLB* (page -> node) answers the
 *     overwhelming majority of lookups in O(1) with one array probe. The
 *     table invalidates it precisely on every mutation, so it can never
 *     serve a stale home.
 *  2. A sparse *exception overlay* (page -> node hash map) holds
 *     single-page placements: UVM first-touch, migration re-homes,
 *     fault-degradation rescues, and page-exact co-placement.
 *  3. A *segment map* holds bulk placements as a handful of segments --
 *     {start, end, policy} where the policy is uniform(node),
 *     strideInterleave(granule, nodes) (Eq. 1 placement resolved
 *     arithmetically), or rowBlocked(rowBytes, rowNodes) -- so a miss
 *     costs O(log #segments) with #segments ~ #arrays, not #pages.
 *
 * Writers never erase each other across layers; instead every mutation
 * takes a generation stamp and a lookup resolves to the *newest* layer
 * covering the address. This keeps single-page overlays O(1) to apply
 * (no segment splitting) while preserving exact last-writer-wins
 * semantics of the old interval map.
 *
 * Not thread-safe: lookup() updates the TLB through a mutable member.
 * One PageTable belongs to one experiment (SweepRunner gives each worker
 * its own MemorySystem), matching every other simulator component.
 */

#ifndef LADM_MEM_PAGE_TABLE_HH
#define LADM_MEM_PAGE_TABLE_HH

#include <cstddef>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace ladm
{

class PageTable
{
  public:
    explicit PageTable(Bytes page_size = 4096);

    /**
     * Map [addr, addr+size) to @p node. The range is expanded outward to
     * page boundaries. Overwrites any previous mapping of the range.
     * A single-page range is recorded as an O(1) exception overlay; a
     * larger range becomes a uniform segment.
     */
    void place(Addr addr, Bytes size, NodeId node);

    /**
     * Map [addr, addr+size) to @p node at *sector* granularity, without
     * page rounding. This models hardware sub-page address interleaving
     * (the mechanism CODA proposes [36]); ordinary software placement
     * must use place().
     */
    void placeSubPage(Addr addr, Bytes size, NodeId node);

    /**
     * Register [base, base+size) (expanded outward to page boundaries)
     * as ONE stride-interleaved segment: granule k (counted from the
     * rounded-down base) homes at nodes[k % nodes.size()]. Equivalent to
     * the loop of place() calls placeInterleaved() used to make, but
     * O(1) segments instead of O(size/granule) runs. @p granule must be
     * a positive multiple of the page size.
     */
    void placeStrideInterleave(Addr base, Bytes size,
                               const std::vector<NodeId> &nodes,
                               Bytes granule);

    /**
     * Sub-page variant of placeStrideInterleave(): boundaries round to
     * sectors and @p granule must be a positive multiple of the sector
     * size (CODA's fine-grained hardware mapping).
     */
    void placeStrideInterleaveSubPage(Addr base, Bytes size,
                                      const std::vector<NodeId> &nodes,
                                      Bytes granule);

    /**
     * Register [base, base + rows*row_bytes) as ONE row-blocked segment:
     * row r (of @p row_nodes.size() rows, each @p row_bytes long) homes
     * at row_nodes[r]. Both @p base and @p row_bytes must be page
     * aligned (callers with unaligned strips fall back to per-strip
     * place() calls). A nonzero @p total_bytes overrides the segment
     * length (rounded up to a page); addresses past the last row home
     * with the last row, so a residue tail joins the final strip.
     */
    void placeRowBlocked(Addr base, Bytes row_bytes,
                         const std::vector<NodeId> &row_nodes,
                         Bytes total_bytes = 0);

    /** Home node of @p addr, or kInvalidNode if the page is unmapped. */
    NodeId
    lookup(Addr addr) const
    {
        const uint64_t page = addr >> pageShift_;
        const TlbEntry &e = tlb_[page & kTlbMask];
        if (e.tag == page + 1) {
            ++tlbHits_;
            return e.node;
        }
        return lookupSlow(addr);
    }

    /** True iff the page containing @p addr has a home node. */
    bool isMapped(Addr addr) const { return lookup(addr) != kInvalidNode; }

    /**
     * Read-only translation for the sharded engine's parallel phase:
     * same layered resolution as lookup(), but it never fills the TLB
     * and never touches the (mutable) hit/miss counters, so concurrent
     * callers are safe provided nothing mutates the table meanwhile --
     * the engine confines every mutation (placement, UVM faults,
     * migration) to its serial barrier sections. Reading a TLB entry
     * written in an earlier serial phase is fine: the barrier orders it.
     */
    NodeId
    lookupNoFill(Addr addr) const
    {
        const uint64_t page = addr >> pageShift_;
        const TlbEntry &e = tlb_[page & kTlbMask];
        if (e.tag == page + 1)
            return e.node;
        return lookupSlowNoFill(addr);
    }

    /**
     * Hint the CPU to pull @p addr's TLB entry into cache ahead of a
     * lookup() -- the TLB array is 128 KiB, so a cold probe stalls the
     * translation. No architectural effect.
     */
    void
    prefetch(Addr addr) const
    {
        __builtin_prefetch(&tlb_[(addr >> pageShift_) & kTlbMask]);
    }

    /** Drop every mapping. */
    void clear();

    /** Number of bulk segments (exposed for testing). */
    size_t numSegments() const { return segments_.size(); }

    /** Number of single-page exception overlays (exposed for testing). */
    size_t numExceptions() const { return exceptions_.size(); }

    /** Total mapped bytes resident on @p node. */
    Bytes bytesOnNode(NodeId node) const;

    Bytes pageSize() const { return pageSize_; }

    // --- TLB observability (exposed for testing / telemetry) ---------------
    uint64_t tlbHits() const { return tlbHits_; }
    uint64_t tlbMisses() const { return tlbMisses_; }
    uint64_t tlbFlushes() const { return tlbFlushes_; }

    /**
     * Checkpoint all three layers AND the TLB with its hit/miss
     * counters (snapshot/component_state.cc): the counters are published
     * stats, so restoring with a cold TLB would diverge from the
     * uninterrupted run.
     */
    template <class Ar> void io(Ar &ar);

  private:
    enum class SegKind : uint8_t
    {
        Uniform,          ///< whole segment homes at `node`
        StrideInterleave, ///< granule k -> nodes[k % nodes.size()]
        RowBlocked,       ///< row r (granule bytes) -> nodes[r]
    };

    struct Segment
    {
        Addr end = 0;     ///< exclusive
        Addr anchor = 0;  ///< arithmetic origin (survives carving)
        uint64_t gen = 0; ///< mutation stamp: newest layer wins
        SegKind kind = SegKind::Uniform;
        NodeId node = kInvalidNode; ///< Uniform only
        Bytes granule = 0;          ///< interleave granule / row bytes
        std::vector<NodeId> nodes;  ///< interleave RR list / row map

        template <class Ar> void io(Ar &ar);
    };

    struct PageExc
    {
        NodeId node = kInvalidNode;
        uint64_t gen = 0;

        template <class Ar> void io(Ar &ar);
    };

    struct TlbEntry
    {
        uint64_t tag = 0; ///< page number + 1; 0 = empty
        NodeId node = kInvalidNode;

        template <class Ar> void io(Ar &ar);
    };

    /** Direct-mapped TLB size (entries); must be a power of two. */
    static constexpr size_t kTlbSize = 8192;
    static constexpr uint64_t kTlbMask = kTlbSize - 1;

    /** Erase any segment span overlapping [start, end), splitting. */
    void carve(Addr start, Addr end);

    /** carve() + insert, with uniform-neighbour merging. */
    void insertSegment(Addr start, Segment seg);

    /** Home under segment @p s (which starts at @p start) for @p addr. */
    NodeId resolveSegment(const Segment &s, Addr start, Addr addr) const;

    /**
     * True iff every address of one page resolves to the same node under
     * @p s, i.e. the translation may be cached page-granular in the TLB.
     */
    bool pageUniform(const Segment &s) const;

    /** Any segment with generation above @p gen overlapping [lo, hi)? */
    bool newerSegmentIntersects(Addr lo, Addr hi, uint64_t gen) const;

    /** Layered lookup behind the TLB; fills the TLB when legal. */
    NodeId lookupSlow(Addr addr) const;
    /** Layered lookup with no TLB fill and no counter updates. */
    NodeId lookupSlowNoFill(Addr addr) const;

    /** Exact per-node bytes of segment @p s clipped to [a, b). */
    Bytes segmentBytesOnNode(const Segment &s, Addr start, Addr a, Addr b,
                             NodeId node) const;

    void tlbInvalidatePage(uint64_t page);
    void tlbFlush();

    Bytes pageSize_;
    int pageShift_;
    uint64_t gen_ = 0; ///< bumped by every mutation

    std::map<Addr, Segment> segments_; // key = inclusive start
    std::unordered_map<uint64_t, PageExc> exceptions_; // key = page no.

    mutable std::vector<TlbEntry> tlb_;
    mutable uint64_t tlbHits_ = 0;
    mutable uint64_t tlbMisses_ = 0;
    uint64_t tlbFlushes_ = 0;
};

} // namespace ladm

#endif // LADM_MEM_PAGE_TABLE_HH
