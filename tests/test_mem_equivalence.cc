/**
 * @file
 * Differential tests pinning the hot-path rebuild to the historical
 * implementations it replaced:
 *
 *  - the segmented PageTable (+ home-translation TLB) against the old
 *    byte-interval run map, re-implemented here verbatim as the
 *    reference model and driven with randomized placement histories
 *    (bulk uniform, Eq. 1 stride interleave, row-blocked strips,
 *    first-touch exceptions, migration streaks, fault re-homes);
 *  - the line-granular MshrTable against a per-sector map that mirrors
 *    its line-level expiry, on scattered and line-run streams (the
 *    slot memo, absent sectors of held lines), including collision
 *    chains, ready-offset rebasing, checkpoint round trips, and a
 *    capacity bound of 4x the live lines under churn;
 *  - the 8-byte-way SectoredCache against the structure-of-arrays
 *    layout with 64-bit stamps it replaced (results, evictions, victim
 *    order, every invalidation path, the 25-bit stamp field's
 *    renumbering when the LRU clock wraps, and the way memo under
 *    line-run streams and a checkpoint round trip);
 *  - the EventQueue's 8-byte entries against the std::priority_queue
 *    the engine historically used, including a 16K-warp drain, and its
 *    16-byte entries against a FIFO-within-ties multimap, including
 *    late events; both through a checkpoint round trip.
 */

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "common/bitutils.hh"
#include "common/rng.hh"
#include "common/serial.hh"
#include "common/sim_error.hh"
#include "mem/address.hh"
#include "mem/page_table.hh"
#include "sim/event_queue.hh"
#include "sim/mshr_table.hh"

namespace ladm
{
namespace
{

// ---------------------------------------------------------------------------
// Reference model: the pre-overhaul interval-map page table. This is the
// exact insertion/carve/lookup logic the simulator shipped with before
// the segmented table, kept here as the semantic oracle.
// ---------------------------------------------------------------------------
class RunMapReference
{
  public:
    explicit RunMapReference(Bytes page_size) : pageSize_(page_size) {}

    void
    place(Addr addr, Bytes size, NodeId node)
    {
        if (size == 0)
            return;
        placeAligned(roundDown(addr, pageSize_),
                     roundUp(addr + size, pageSize_), node);
    }

    void
    placeSubPage(Addr addr, Bytes size, NodeId node)
    {
        if (size == 0)
            return;
        placeAligned(roundDown(addr, kSectorSize),
                     roundUp(addr + size, kSectorSize), node);
    }

    /** The loop of place() calls the bulk-placement APIs replaced. */
    void
    placeStrideInterleave(Addr base, Bytes size,
                          const std::vector<NodeId> &nodes, Bytes granule,
                          Bytes round)
    {
        const Addr start = roundDown(base, round);
        const Addr end = roundUp(base + size, round);
        size_t k = 0;
        for (Addr a = start; a < end; a += granule, ++k)
            placeAligned(a, std::min<Addr>(a + granule, end),
                         nodes[k % nodes.size()]);
    }

    void
    placeRowBlocked(Addr base, Bytes row_bytes,
                    const std::vector<NodeId> &row_nodes,
                    Bytes total_bytes)
    {
        const size_t rows = row_nodes.size();
        Addr end = base + static_cast<Bytes>(rows) * row_bytes;
        if (total_bytes)
            end = roundUp(base + total_bytes, pageSize_);
        for (size_t r = 0; r < rows; ++r) {
            const Addr lo = base + static_cast<Bytes>(r) * row_bytes;
            Addr hi = lo + row_bytes;
            if (r + 1 == rows)
                hi = std::max<Addr>(hi, end); // residue joins last row
            if (lo >= end)
                break;
            placeAligned(lo, std::min<Addr>(hi, end), row_nodes[r]);
        }
    }

    NodeId
    lookup(Addr addr) const
    {
        auto it = runs_.upper_bound(addr);
        if (it == runs_.begin())
            return kInvalidNode;
        --it;
        return addr < it->second.end ? it->second.node : kInvalidNode;
    }

  private:
    struct Run
    {
        Addr end;
        NodeId node;
    };

    void
    carve(Addr start, Addr end)
    {
        auto it = runs_.lower_bound(start);
        if (it != runs_.begin()) {
            auto prev = std::prev(it);
            if (prev->second.end > start) {
                Run old = prev->second;
                prev->second.end = start;
                if (old.end > end)
                    runs_.emplace(end, Run{old.end, old.node});
            }
        }
        while (it != runs_.end() && it->first < end) {
            if (it->second.end > end) {
                Run tail{it->second.end, it->second.node};
                it = runs_.erase(it);
                runs_.emplace(end, tail);
                break;
            }
            it = runs_.erase(it);
        }
    }

    void
    placeAligned(Addr start, Addr end, NodeId node)
    {
        carve(start, end);
        auto next = runs_.lower_bound(start);
        if (next != runs_.end() && next->first == end &&
            next->second.node == node) {
            end = next->second.end;
            runs_.erase(next);
        }
        if (!runs_.empty()) {
            auto prev = runs_.upper_bound(start);
            if (prev != runs_.begin()) {
                --prev;
                if (prev->second.end == start &&
                    prev->second.node == node) {
                    prev->second.end = end;
                    return;
                }
            }
        }
        runs_.emplace(start, Run{end, node});
    }

    Bytes pageSize_;
    std::map<Addr, Run> runs_;
};

constexpr Bytes kPage = 4096;
constexpr int kNodes = 16;

/** Probe both tables at @p addr; lookup twice so the second hit comes
 *  from the TLB and must agree with the table walk that filled it. */
void
expectSameHome(const PageTable &pt, const RunMapReference &ref, Addr addr)
{
    const NodeId want = ref.lookup(addr);
    ASSERT_EQ(pt.lookup(addr), want) << "addr " << addr;
    ASSERT_EQ(pt.lookup(addr), want) << "TLB re-probe at " << addr;
}

TEST(MemEquivalence, RandomizedPlacementHistories)
{
    Rng rng(0xfeedface);
    for (int round = 0; round < 8; ++round) {
        PageTable pt(kPage);
        RunMapReference ref(kPage);

        // A handful of "allocations" the ops land in, as in real runs.
        const Addr arena = 1ull << 21;
        std::vector<Addr> bases;
        for (int a = 0; a < 6; ++a)
            bases.push_back(arena * (a + 1));

        std::vector<Addr> touched; // sample pool for probes
        for (int op = 0; op < 300; ++op) {
            const Addr base = bases[rng.nextBounded(bases.size())];
            const Addr off = rng.nextBounded(256) * kPage;
            const NodeId node =
                static_cast<NodeId>(rng.nextBounded(kNodes));
            switch (rng.nextBounded(6)) {
            case 0: { // bulk uniform placement
                const Bytes sz = (1 + rng.nextBounded(64)) * kPage;
                pt.place(base + off, sz, node);
                ref.place(base + off, sz, node);
                break;
            }
            case 1: { // single-page op: first-touch / migration /
                      // fault re-home (all land in the overlay)
                pt.place(base + off + rng.nextBounded(kPage), 1, node);
                ref.place(base + off, kPage, node);
                break;
            }
            case 2: { // Eq. 1 stride interleave
                std::vector<NodeId> lst;
                const size_t n = 1 + rng.nextBounded(kNodes);
                for (size_t i = 0; i < n; ++i)
                    lst.push_back(static_cast<NodeId>(
                        rng.nextBounded(kNodes)));
                const Bytes granule =
                    kPage << rng.nextBounded(3); // 1/2/4 pages
                const Bytes sz = (1 + rng.nextBounded(64)) * kPage;
                pt.placeStrideInterleave(base + off, sz, lst, granule);
                ref.placeStrideInterleave(base + off, sz, lst, granule,
                                          kPage);
                break;
            }
            case 3: { // CODA-style sub-page interleave
                std::vector<NodeId> lst;
                const size_t n = 1 + rng.nextBounded(4);
                for (size_t i = 0; i < n; ++i)
                    lst.push_back(static_cast<NodeId>(
                        rng.nextBounded(kNodes)));
                const Bytes granule = kSectorSize
                                      << rng.nextBounded(3);
                const Bytes sz =
                    (1 + rng.nextBounded(64)) * kSectorSize;
                pt.placeStrideInterleaveSubPage(base + off, sz, lst,
                                                granule);
                ref.placeStrideInterleave(base + off, sz, lst, granule,
                                          kSectorSize);
                break;
            }
            case 4: { // row-blocked strips
                std::vector<NodeId> rowsN;
                const size_t rows = 1 + rng.nextBounded(8);
                for (size_t i = 0; i < rows; ++i)
                    rowsN.push_back(static_cast<NodeId>(
                        rng.nextBounded(kNodes)));
                const Bytes row_bytes =
                    (1 + rng.nextBounded(8)) * kPage;
                const Bytes total =
                    rng.nextBounded(2)
                        ? 0
                        : rows * row_bytes + rng.nextBounded(row_bytes);
                pt.placeRowBlocked(base + off, row_bytes, rowsN, total);
                ref.placeRowBlocked(base + off, row_bytes, rowsN,
                                    total);
                break;
            }
            case 5: { // sub-page co-placement
                const Bytes sz =
                    (1 + rng.nextBounded(32)) * kSectorSize;
                const Addr a =
                    base + off + rng.nextBounded(kPage / 2);
                pt.placeSubPage(a, sz, node);
                ref.placeSubPage(a, sz, node);
                break;
            }
            }
            touched.push_back(base + off);

            // Spot-probe around the op just applied (edges + interior).
            for (int p = 0; p < 8; ++p) {
                const Addr probe =
                    base + off + rng.nextBounded(70 * kPage);
                expectSameHome(pt, ref, probe);
            }
        }

        // Dense final sweep over everything any op touched.
        for (const Addr t : touched)
            for (Addr a = t; a < t + 70 * kPage; a += kSectorSize)
                expectSameHome(pt, ref, a);
    }
}

TEST(MemEquivalence, TlbInvalidatedByEveryMutationKind)
{
    PageTable pt(kPage);
    pt.place(0, 64 * kPage, 1);
    ASSERT_EQ(pt.lookup(5 * kPage), 1); // fills the TLB

    pt.place(5 * kPage, 1, 2); // page-exception overwrite
    EXPECT_EQ(pt.lookup(5 * kPage), 2);

    pt.placeStrideInterleave(4 * kPage, 4 * kPage, {3, 4}, kPage);
    EXPECT_EQ(pt.lookup(4 * kPage), 3);
    EXPECT_EQ(pt.lookup(5 * kPage), 4);
    EXPECT_EQ(pt.lookup(6 * kPage), 3);

    pt.placeRowBlocked(4 * kPage, kPage, {5, 6});
    EXPECT_EQ(pt.lookup(4 * kPage), 5);
    EXPECT_EQ(pt.lookup(5 * kPage), 6);

    ASSERT_EQ(pt.lookup(7 * kPage), 4); // interleave tail, via TLB
    pt.placeSubPage(7 * kPage, kSectorSize, 7);
    EXPECT_EQ(pt.lookup(7 * kPage), 7);

    pt.clear();
    EXPECT_EQ(pt.lookup(5 * kPage), kInvalidNode);
}

// ---------------------------------------------------------------------------
// Line-granular MshrTable vs a per-sector map.
// ---------------------------------------------------------------------------

/**
 * Per-sector reference for MshrTable: sector -> ready cycle, the lines
 * the table holds, and its ready base. It mirrors the table's expiry
 * contract without hashing, offsets or slots: an insert of a new line
 * that would pass 3/4 load, or whose ready offset does not fit 32 bits,
 * first sweeps -- every sector ready at or before the sweep's cycle
 * goes, then every line left without one, and the base advances to the
 * sweep's cycle. A ready cycle at or before the base leaves its sector
 * absent; a line stays until a sweep finds it empty.
 */
struct MshrReference
{
    std::unordered_map<Addr, Cycles> sectors;
    std::set<Addr> lines; ///< line indices the table holds
    Cycles base = 0;

    void
    sweep(Cycles now)
    {
        base = std::max(base, now);
        lines.clear();
        for (auto it = sectors.begin(); it != sectors.end();) {
            if (it->second <= now) {
                it = sectors.erase(it);
            } else {
                lines.insert(it->first / kLineSize);
                ++it;
            }
        }
    }

    void
    insert(Addr k, Cycles ready, Cycles now, size_t capacity)
    {
        const Addr line = k / kLineSize;
        if (ready <= base || ready - base <= UINT32_MAX) {
            if (lines.count(line)) {
                if (ready <= base)
                    sectors.erase(k);
                else
                    sectors[k] = ready;
                return;
            }
            if (ready <= base)
                return;
            if ((lines.size() + 1) * 4 <= capacity * 3) {
                lines.insert(line);
                sectors[k] = ready;
                return;
            }
        }
        sweep(now);
        insert(k, ready, now, 2 * capacity); // room, doubling if need be
    }

    void
    clear()
    {
        sectors.clear();
        lines.clear();
        base = 0;
    }

    /** A find() of @p k that must miss although its line is held. */
    bool
    absentInPresentLine(Addr k) const
    {
        return lines.count(k / kLineSize) && !sectors.count(k);
    }
};

/** Insert into both, through insertAt() after a locate() or insert(). */
void
insertBoth(MshrTable &t, MshrReference &ref, Addr k, Cycles ready,
           Cycles now, bool via_ref)
{
    ref.insert(k, ready, now, t.capacity());
    if (via_ref)
        t.insertAt(t.locate(k), k, ready, now);
    else
        t.insert(k, ready, now);
}

void
expectSameContents(const MshrTable &t, const MshrReference &ref)
{
    std::map<Addr, Cycles> got,
        want(ref.sectors.begin(), ref.sectors.end());
    t.forEach([&](Addr a, Cycles c) { got[a] = c; });
    EXPECT_EQ(got, want);
    EXPECT_EQ(t.size(), ref.lines.size());
}

/** Sector addresses as a coalesced warp step issues them. */
class LineRunStream
{
  public:
    explicit LineRunStream(Rng &rng) : rng_(rng) {}

    /**
     * 3/4 of the time a sector of the previous address's line; else a
     * sector of a fresh line or of one of the last eight lines.
     */
    Addr
    next()
    {
        const bool same_line = rng_.nextBounded(4) != 0 && !recent_.empty();
        if (!same_line) {
            if (rng_.nextBounded(2) == 0 || recent_.size() < 8) {
                recent_.push_back(rng_.nextBounded(kMaxSimAddr / kLineSize));
                if (recent_.size() > 8)
                    recent_.erase(recent_.begin());
            } else {
                std::swap(recent_.back(), recent_[rng_.nextBounded(8)]);
            }
        }
        return recent_.back() * kLineSize +
               rng_.nextBounded(MshrTable::kSectorsPerLine) * kSectorSize;
    }

  private:
    Rng &rng_;
    std::vector<Addr> recent_; ///< line indices, the current one last
};

struct MshrStreamCounts
{
    size_t memoRepeats = 0;      ///< lookups of the previous op's line
    size_t absentInPresent = 0;  ///< misses on a sector of a held line
    size_t maxCapacity = 0;
};

/**
 * Randomized op mix over the addresses @p next draws: inserts, the
 * hot-path locate -> insertAt pair, short misses, expired ready cycles,
 * finds, clock advances, clears and checkpoint round trips, checked
 * against the per-sector reference after every op.
 */
template <class Next>
MshrStreamCounts
runMshrOps(uint64_t seed, int ops, Next &&next)
{
    Rng rng(seed);
    MshrTable t;
    MshrReference ref;
    Cycles now = 0;
    Addr prev_line = ~Addr{0};
    MshrStreamCounts c;
    const auto lookup = [&](Addr k, std::optional<Cycles> got) {
        const auto it = ref.sectors.find(k);
        EXPECT_EQ(got.has_value(), it != ref.sectors.end()) << "key " << k;
        if (got && it != ref.sectors.end()) {
            EXPECT_EQ(*got, it->second) << "key " << k;
        }
        c.absentInPresent += ref.absentInPresentLine(k);
        c.memoRepeats += ref.lines.count(k / kLineSize) &&
                         k / kLineSize == prev_line;
    };
    for (int op = 0; op < ops; ++op) {
        const Addr k = next(rng);
        switch (rng.nextBounded(10)) {
        case 0:
        case 1:
        case 2: // insert / overwrite
            insertBoth(t, ref, k, now + 1 + rng.nextBounded(4000), now,
                       false);
            break;
        case 3: { // the hot-path locate -> insertAt pair
            const MshrTable::Ref r = t.locate(k);
            lookup(k, r.found ? std::optional(t.readyAt(r)) : std::nullopt);
            insertBoth(t, ref, k, now + 1 + rng.nextBounded(4000), now,
                       true);
            break;
        }
        case 4: // a short miss: expires by the next sweep
            insertBoth(t, ref, k, now + 1 + rng.nextBounded(8), now, false);
            break;
        case 5: // a deferred op's completion, already in the past
            insertBoth(t, ref, k,
                       now - std::min<Cycles>(now, rng.nextBounded(8)), now,
                       false);
            break;
        case 6:
        case 7: // find, and the line's other sectors
            lookup(k, t.find(k));
            for (Addr s = 0; s < kLineSize; s += kSectorSize) {
                const Addr a = lineBase(k) + s;
                if (a != k)
                    lookup(a, t.find(a));
            }
            break;
        case 8: // the clock advances; the next sweep expires entries
            now += rng.nextBounded(8);
            break;
        case 9:
            if (rng.nextBounded(400) == 0) { // kernel-boundary clear
                t.clear();
                ref.clear();
            } else if (rng.nextBounded(400) == 0) { // checkpoint round trip
                serial::Writer w;
                w.section(1);
                t.io(w);
                serial::Reader r(w.finish(0));
                r.section(1);
                MshrTable u;
                u.io(r);
                t = u;
            }
            break;
        }
        prev_line = k / kLineSize;
        if (testing::Test::HasFailure())
            break;
        EXPECT_EQ(t.size(), ref.lines.size()) << "op " << op;
        c.maxCapacity = std::max(c.maxCapacity, t.capacity());
        if (op % 1000 == 0)
            expectSameContents(t, ref);
    }
    expectSameContents(t, ref);
    return c;
}

TEST(MshrEquivalence, RandomizedOpsMatchUnorderedMap)
{
    // Scattered stream: sectors from a pool small enough to force heavy
    // reuse (overwrite paths) and large enough, with long enough
    // lifetimes, to force several grows past the minimum capacity; the
    // advancing clock forces expiry sweeps.
    Rng pool_rng(0xdecafbad);
    std::vector<Addr> keys;
    for (int i = 0; i < 6000; ++i)
        keys.push_back(pool_rng.nextBounded(kMaxSimAddr) & ~Addr{31});
    const MshrStreamCounts scattered = runMshrOps(
        0xdecafbad, 80000,
        [&](Rng &rng) { return keys[rng.nextBounded(keys.size())]; });
    EXPECT_GE(scattered.maxCapacity, 4 * MshrTable::kMinCapacity)
        << "no grows exercised";

    // Line-run stream: a line's sectors arrive back to back, so the memo
    // answers most lookups and lines hold live, expired and absent
    // sectors side by side when a sweep rebases them.
    Rng stream_rng(0x5eed);
    LineRunStream lines(stream_rng);
    const MshrStreamCounts run = runMshrOps(
        0x11e5, 80000, [&](Rng &) { return lines.next(); });
    EXPECT_GE(run.memoRepeats, 10000u) << "memo hardly exercised";
    EXPECT_GE(run.absentInPresent, 3000u)
        << "absent sectors of held lines hardly looked up";
    EXPECT_GE(run.maxCapacity, 2 * MshrTable::kMinCapacity)
        << "no grows exercised";
}

TEST(MshrEquivalence, CapacityTracksLiveSetUnderChurn)
{
    // Steady churn: every cycle misses on the next sector of a never
    // seen stretch of memory, in flight for 1..3000 cycles, so lines
    // fill four sectors over four cycles. The table must size itself to
    // the live lines (a sector not yet expired), not to the distinct
    // lines a run has missed on.
    Rng rng(11);
    MshrTable t;
    std::multiset<Cycles> live; // last-sector ready cycle per closed line
    Cycles open_ready = 0;      // of the line still filling
    size_t peak_live = 0;
    for (Cycles now = 0; now < 200000; ++now) {
        while (!live.empty() && *live.begin() <= now)
            live.erase(live.begin());
        const Cycles ready = now + 1 + rng.nextBounded(3000);
        t.insert(static_cast<Addr>(now) * kSectorSize, ready, now);
        open_ready = std::max(now % 4 == 0 ? 0 : open_ready, ready);
        const size_t live_lines = live.size() + 1;
        if (now % 4 == 3)
            live.insert(open_ready);
        peak_live = std::max(peak_live, live_lines);
        ASSERT_LE(t.capacity(),
                  std::max(MshrTable::kMinCapacity, 4 * peak_live))
            << "at cycle " << now;
        ASSERT_GE(t.size(), live_lines);
    }
    EXPECT_GT(peak_live, 500u);
}

TEST(MshrEquivalence, ClearEmptiesTable)
{
    MshrTable t;
    const auto addr = [](Addr line) {
        return line * kLineSize + (line % 4) * kSectorSize;
    };
    for (Addr l = 0; l < 3000; ++l)
        t.insert(addr(l), 1000 + l, 0); // all live: grows past the minimum
    const size_t grown = t.capacity();
    EXPECT_GT(grown, MshrTable::kMinCapacity);
    EXPECT_EQ(t.size(), 3000u);
    t.clear();
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.capacity(), grown);
    for (Addr l = 0; l < 3000; ++l)
        ASSERT_FALSE(t.find(addr(l)).has_value()) << l;
    size_t visited = 0;
    t.forEach([&](Addr, Cycles) { ++visited; });
    EXPECT_EQ(visited, 0u);

    // Still a working table, with its ready base reset: cycles far past
    // the cleared entries' still encode.
    const Cycles later = Cycles{1} << 40;
    t.insert(64, later + 7, later);
    t.insert(96, later + 9, later);
    ASSERT_TRUE(t.find(64).has_value());
    EXPECT_EQ(*t.find(64), later + 7);
    EXPECT_EQ(*t.find(96), later + 9);
    EXPECT_FALSE(t.find(128).has_value());
    EXPECT_FALSE(t.find(32).has_value()); // same line, never recorded
    EXPECT_EQ(t.size(), 1u);
}

TEST(MshrEquivalence, ReadyOffsetsRebaseAndRefuseOverflow)
{
    MshrTable t;
    // Ready cycles up to 2^32 - 1 past the base encode directly.
    t.insert(32, UINT32_MAX, 0);
    EXPECT_EQ(*t.find(32), Cycles{UINT32_MAX});
    EXPECT_FALSE(t.find(0).has_value()); // absent, not ready at the base
    // A later insert whose offset from the base is out of range sweeps
    // first, advancing the base to now; the expired sector goes, and
    // with it its line.
    const Cycles now = Cycles{5} << 32;
    t.insert(64, now + 100, now);
    EXPECT_EQ(*t.find(64), now + 100);
    EXPECT_FALSE(t.find(32).has_value());
    EXPECT_EQ(t.size(), 1u);
    // A ready cycle at or before the base is already expired for every
    // later lookup: it leaves the sector absent, and holds no new line.
    t.insert(96, now - 10, now);
    EXPECT_FALSE(t.find(96).has_value());
    t.insert(4096, now, now);
    EXPECT_FALSE(t.find(4096).has_value());
    EXPECT_EQ(t.size(), 1u);
    // A sweep that keeps a line rebases its live sectors and drops its
    // expired one, which must not wrap to a far-future ready cycle.
    t.insert(128, now + 50, now);
    t.insert(160, now + 5000, now);
    const Cycles later = now + 100;
    t.insert(256, later + UINT32_MAX, later); // offset out of range: sweep
    EXPECT_FALSE(t.find(128).has_value());
    EXPECT_EQ(*t.find(160), now + 5000);
    EXPECT_EQ(*t.find(256), later + UINT32_MAX);
    EXPECT_FALSE(t.find(64).has_value());
    EXPECT_EQ(t.size(), 2u);
    // An in-flight miss 2^32 or more cycles past now cannot encode.
    EXPECT_THROW(t.insert(512, later + (Cycles{1} << 32), later), SimError);
    EXPECT_NO_THROW(t.insert(512, later + UINT32_MAX, later));
}

TEST(MshrEquivalence, CollisionChainsSurviveExpiry)
{
    // Dense sequential lines build long probe clusters at the minimum
    // capacity. Each round re-misses half of the previous round's lines
    // and adds new ones while about half the sectors expire, so the
    // rebuilding sweeps keep cutting clusters apart; every sector must
    // stay reachable with its latest ready cycle.
    MshrTable t;
    MshrReference ref;
    Rng rng(7);
    Cycles now = 0;
    for (Addr round = 0; round < 40; ++round) {
        for (Addr s = 0; s < 200; ++s) {
            const Addr a = (round * 100 + s) * kLineSize +
                           rng.nextBounded(4) * kSectorSize;
            insertBoth(t, ref, a, now + 1 + rng.nextBounded(100), now,
                       false);
        }
        now += 50;
        for (int p = 0; p < 2000; ++p) {
            const Addr k = rng.nextBounded((round + 2) * 400) * kSectorSize;
            const std::optional<Cycles> got = t.find(k);
            auto it = ref.sectors.find(k);
            ASSERT_EQ(got.has_value(), it != ref.sectors.end()) << "key " << k;
            if (got) {
                ASSERT_EQ(*got, it->second);
            }
        }
        ASSERT_EQ(t.size(), ref.lines.size()) << "round " << round;
    }
    EXPECT_LE(t.capacity(), 4 * MshrTable::kMinCapacity);
}

// ---------------------------------------------------------------------------
// SectoredCache vs the structure-of-arrays layout it replaced: separate
// tag and metadata arrays, re-implemented here verbatim as the
// reference model. Same set hash, same LRU victim choice.
// ---------------------------------------------------------------------------

class SoaCacheRef
{
  public:
    SoaCacheRef(Bytes size, int assoc)
        : assoc_(assoc), numSets_(size / (assoc * kLineSize)),
          tags_(numSets_ * assoc, kNoLine), meta_(numSets_ * assoc)
    {
    }

    AccessResult
    access(Addr addr, bool is_write, bool allocate, EvictInfo *evict)
    {
        ++useClock_;
        const Addr line = lineBase(addr);
        const int sector = static_cast<int>((addr - line) / kSectorSize);
        const uint8_t sbit = static_cast<uint8_t>(1u << sector);
        const size_t base = setIndex(line) * assoc_;
        Addr *const tags = &tags_[base];
        for (int i = 0; i < assoc_; ++i) {
            if (tags[i] == line) {
                WayMeta &w = meta_[base + i];
                w.lastUse = useClock_;
                if (w.sectorValid & sbit) {
                    if (is_write)
                        w.sectorDirty |= sbit;
                    return AccessResult::Hit;
                }
                if (allocate) {
                    w.sectorValid |= sbit;
                    if (is_write)
                        w.sectorDirty |= sbit;
                }
                return AccessResult::SectorMiss;
            }
        }
        if (!allocate)
            return AccessResult::Miss;
        int victim = 0;
        for (int i = 0; i < assoc_; ++i) {
            if (tags[i] == kNoLine) {
                victim = i;
                break;
            }
            if (meta_[base + i].lastUse < meta_[base + victim].lastUse)
                victim = i;
        }
        WayMeta &w = meta_[base + victim];
        if (tags[victim] != kNoLine && evict) {
            evict->evicted = true;
            evict->lineAddr = tags[victim];
            evict->dirtyMask = w.sectorDirty;
        }
        tags[victim] = line;
        w.sectorValid = sbit;
        w.sectorDirty = is_write ? sbit : 0;
        w.lastUse = useClock_;
        return AccessResult::Miss;
    }

    bool
    probe(Addr addr) const
    {
        const Addr line = lineBase(addr);
        const int sector = static_cast<int>((addr - line) / kSectorSize);
        const size_t base = setIndex(line) * assoc_;
        for (int i = 0; i < assoc_; ++i)
            if (tags_[base + i] == line)
                return (meta_[base + i].sectorValid >> sector) & 1;
        return false;
    }

    bool
    invalidateSector(Addr addr)
    {
        const Addr line = lineBase(addr);
        const int sector = static_cast<int>((addr - line) / kSectorSize);
        const uint8_t sbit = static_cast<uint8_t>(1u << sector);
        const size_t base = setIndex(line) * assoc_;
        for (int i = 0; i < assoc_; ++i) {
            if (tags_[base + i] != line)
                continue;
            WayMeta &w = meta_[base + i];
            const bool present = (w.sectorValid & sbit) != 0;
            w.sectorValid &= static_cast<uint8_t>(~sbit);
            w.sectorDirty &= static_cast<uint8_t>(~sbit);
            if (w.sectorValid == 0) {
                tags_[base + i] = kNoLine;
                w = WayMeta{};
            }
            return present;
        }
        return false;
    }

    uint64_t
    invalidateRange(Addr lo, Addr hi)
    {
        uint64_t dropped = 0;
        for (Addr line = lineBase(lo); line < hi; line += kLineSize) {
            const size_t base = setIndex(line) * assoc_;
            for (int i = 0; i < assoc_; ++i) {
                if (tags_[base + i] != line)
                    continue;
                dropped += static_cast<uint64_t>(
                    __builtin_popcount(meta_[base + i].sectorValid));
                tags_[base + i] = kNoLine;
                meta_[base + i] = WayMeta{};
                break;
            }
        }
        return dropped;
    }

    uint64_t
    invalidateAll()
    {
        uint64_t dirty = 0;
        for (size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i] != kNoLine)
                dirty += static_cast<uint64_t>(
                    __builtin_popcount(meta_[i].sectorDirty));
            tags_[i] = kNoLine;
            meta_[i] = WayMeta{};
        }
        return dirty;
    }

    /** Which arm of SectoredCache's victim choice a line miss takes. */
    enum class VictimArm
    {
        LastWayEmpty, ///< set not full: the first empty way
        Hole,         ///< last way full, an invalidation hole earlier
        Lru,          ///< set full: the least recently used way
    };

    /** The arm an allocating line miss on @p addr would take now. */
    VictimArm
    victimArm(Addr addr) const
    {
        const size_t base = setIndex(lineBase(addr)) * assoc_;
        if (tags_[base + assoc_ - 1] == kNoLine)
            return VictimArm::LastWayEmpty;
        for (int i = 0; i < assoc_; ++i)
            if (tags_[base + i] == kNoLine)
                return VictimArm::Hole;
        return VictimArm::Lru;
    }

  private:
    static constexpr Addr kNoLine = ~Addr{0};
    struct WayMeta
    {
        uint8_t sectorValid = 0;
        uint8_t sectorDirty = 0;
        uint64_t lastUse = 0;
    };

    size_t
    setIndex(Addr line_addr) const
    {
        // The division form of SectoredCache's XOR-folded hash.
        const uint64_t line = line_addr / kLineSize;
        const uint64_t n = numSets_;
        uint64_t h = line;
        h ^= line / n;
        h ^= line / (n * n);
        h ^= h >> 17;
        return static_cast<size_t>(h % n);
    }

    int assoc_;
    size_t numSets_;
    std::vector<Addr> tags_;
    std::vector<WayMeta> meta_;
    uint64_t useClock_ = 0;
};

/** The address stream runCacheDifferential() draws its ops from. */
enum class Stream
{
    Uniform,  ///< every op a uniformly random sector of the line pool
    LineRuns, ///< mostly the previous op's line, as a warp step's sectors
};

/** Allocating line misses per arm of the victim choice. */
struct VictimArms
{
    uint64_t lastWayEmpty = 0; ///< the set's last way was empty
    uint64_t hole = 0;         ///< last way full, a hole before it
};

/**
 * Drive both caches with one random op stream over a line pool a few
 * times the cache's capacity, comparing every result, every EvictInfo
 * (which pins the victim order), and the hit counter. Each allocating
 * line miss is counted into @p arms by the arm of the victim choice it
 * takes, so a caller can require both non-LRU arms to run. A third of
 * the way in, the cache under test goes through a checkpoint round trip
 * (which resets its way memo). With @p wrap, the cache under test
 * starts its LRU clock just below the stamp limit, so it renumbers its
 * stamps about 70% of the way through the stream, between two flushes,
 * with the cache full.
 *
 * Stream::LineRuns exercises the way memo: with probability 3/4 an op
 * takes the previous op's line (the same or another sector), else a
 * fresh line (3/4) or one of the last eight picked. The stream is four
 * times longer, so it sees about as many fresh lines as a uniform one.
 */
void
runCacheDifferential(Bytes size, int assoc, uint64_t seed,
                     Stream stream = Stream::Uniform, bool wrap = false,
                     VictimArms *arms = nullptr)
{
    SectoredCache c(size, assoc, "dut");
    SoaCacheRef ref(size, assoc);
    Rng rng(seed);
    const bool runs = stream == Stream::LineRuns;
    const uint64_t lines = 3 * size / kLineSize;
    const Addr region = 0x40000000; // 1 GiB: away from address zero
    std::array<uint64_t, 8> recent{};
    uint64_t picked = 0, prev = 0;
    bool repeat = false; // this op's line is the previous op's
    auto pick = [&] {
        uint64_t line = prev;
        if (!runs || picked == 0)
            line = rng.nextBounded(lines);
        else if (rng.nextBounded(4) == 0) {
            line = rng.nextBounded(4) != 0
                       ? rng.nextBounded(lines)
                       : recent[rng.nextBounded(
                             std::min<uint64_t>(picked, recent.size()))];
        }
        repeat = picked > 0 && line == prev;
        recent[picked++ % recent.size()] = line;
        prev = line;
        return region + line * kLineSize +
               rng.nextBounded(kLineSize / kSectorSize) * kSectorSize;
    };
    // Enough ops to fill the cache several times between the few
    // whole-cache flushes.
    const uint64_t ops =
        (runs ? 4 : 1) * (20 * (size / kLineSize) + 20000);
    const uint64_t to_wrap = ops * 6 / 10; // 85% of ops access
    if (wrap)
        c.debugAdvanceClock(SectoredCache::kMaxStamp - to_wrap);
    uint64_t hits = 0, evictions = 0, accesses = 0, repeat_hits = 0;
    for (uint64_t op = 0; op < ops; ++op) {
        if (op == ops / 3) {
            serial::Writer out;
            out.section(1);
            out(c);
            serial::Reader in(out.finish(0));
            in.section(1);
            SectoredCache restored(size, assoc, "dut");
            in(restored);
            c = restored;
        }
        if (op % (ops / 4) == ops / 4 - 1) {
            ASSERT_EQ(c.invalidateAll(), ref.invalidateAll()) << "op " << op;
            continue;
        }
        const Addr a = pick();
        const uint64_t kind = rng.nextBounded(100);
        if (kind < 85) {
            const bool write = rng.nextBounded(4) == 0;
            const bool alloc = rng.nextBounded(8) != 0;
            EvictInfo eg, ew;
            const SoaCacheRef::VictimArm arm = ref.victimArm(a);
            const AccessResult got = c.access(a, write, alloc, &eg);
            const AccessResult want = ref.access(a, write, alloc, &ew);
            ASSERT_EQ(got, want) << "op " << op;
            if (arms && alloc && want == AccessResult::Miss) {
                arms->lastWayEmpty +=
                    arm == SoaCacheRef::VictimArm::LastWayEmpty;
                arms->hole += arm == SoaCacheRef::VictimArm::Hole;
            }
            ASSERT_EQ(eg.evicted, ew.evicted) << "op " << op;
            ASSERT_EQ(eg.lineAddr, ew.lineAddr) << "op " << op;
            ASSERT_EQ(eg.dirtyMask, ew.dirtyMask) << "op " << op;
            hits += got == AccessResult::Hit;
            repeat_hits += repeat && got == AccessResult::Hit;
            evictions += eg.evicted;
            ++accesses;
        } else if (kind < 95) {
            ASSERT_EQ(c.invalidateSector(a), ref.invalidateSector(a))
                << "op " << op;
        } else if (kind < 98) {
            const Addr lo = a - rng.nextBounded(4 * kLineSize);
            const Addr hi = a + rng.nextBounded(16 * kLineSize);
            ASSERT_EQ(c.invalidateRange(lo, hi), ref.invalidateRange(lo, hi))
                << "op " << op;
        } else {
            ASSERT_EQ(c.probe(a), ref.probe(a)) << "op " << op;
        }
    }
    for (uint64_t l = 0; l < lines; ++l)
        for (Addr s = 0; s < kLineSize; s += kSectorSize) {
            const Addr a = region + l * kLineSize + s;
            ASSERT_EQ(c.probe(a), ref.probe(a)) << a;
        }
    EXPECT_EQ(c.hits(), hits);
    EXPECT_GT(hits, 1000u);
    EXPECT_GT(evictions, 1000u);
    if (runs) {
        // A repeated line is what the memo serves; without many of
        // them the memo path would go untested.
        EXPECT_GT(repeat_hits, accesses / 4) << "too few repeated-line hits";
    }
    if (wrap) {
        EXPECT_GT(accesses, to_wrap + lines)
            << "too few accesses after the stamp wrap";
    }
    EXPECT_EQ(c.invalidateAll(), ref.invalidateAll());
}

TEST(CacheEquivalence, L1GeometryMatchesSoaReference)
{
    VictimArms arms;
    runCacheDifferential(64 * 1024, 4, 1, Stream::Uniform, false,
                         &arms); // 128 sets, power of two
    runCacheDifferential(64 * 1024, 4, 11, Stream::LineRuns, false, &arms);
    // Both non-LRU arms of the victim choice must run thousands of
    // times, so a wrong victim in either fails an EvictInfo compare.
    EXPECT_GT(arms.lastWayEmpty, 3000u);
    EXPECT_GT(arms.hole, 3000u);
}

TEST(CacheEquivalence, L2GeometryMatchesSoaReference)
{
    VictimArms arms;
    runCacheDifferential(1 << 20, 16, 2, Stream::Uniform, false,
                         &arms); // 512 sets, 256-byte sets
    runCacheDifferential(1 << 20, 16, 12, Stream::LineRuns, false, &arms);
    // Both non-LRU arms of the victim choice must run thousands of
    // times, so a wrong victim in either fails an EvictInfo compare.
    EXPECT_GT(arms.lastWayEmpty, 3000u);
    EXPECT_GT(arms.hole, 3000u);
}

TEST(CacheEquivalence, OddGeometriesMatchSoaReference)
{
    runCacheDifferential(3 * 2 * kLineSize, 2, 3); // 3 sets: slow hash
    runCacheDifferential(8 * 1 * kLineSize, 1, 4); // direct mapped
    runCacheDifferential(3 * 2 * kLineSize, 2, 13, Stream::LineRuns);
    runCacheDifferential(8 * 1 * kLineSize, 1, 14, Stream::LineRuns);
}

TEST(CacheEquivalence, StampWrapKeepsVictimOrder)
{
    // The 25-bit stamp field overflows mid-stream; each set's stamps are
    // renumbered in order, so every victim matches the reference's
    // 64-bit clock.
    for (const Stream st : {Stream::Uniform, Stream::LineRuns}) {
        const uint64_t seed = st == Stream::Uniform ? 5 : 15;
        runCacheDifferential(64 * 1024, 4, seed, st, /*wrap=*/true);
        runCacheDifferential(1 << 20, 16, seed + 1, st, /*wrap=*/true);
        runCacheDifferential(3 * 2 * kLineSize, 2, seed + 2, st,
                             /*wrap=*/true);
    }
}

// ---------------------------------------------------------------------------
// EventQueue: 8-byte entries must pop exactly like std::priority_queue;
// 16-byte entries pop the same times with FIFO tie order.
// ---------------------------------------------------------------------------

TEST(EventQueueEquivalence, HeapModeMatchesPriorityQueue)
{
    Rng rng(42);
    EventQueue<uint64_t> q;
    std::priority_queue<WarpEvent, std::vector<WarpEvent>,
                        std::greater<WarpEvent>>
        ref;
    uint32_t warp = 0;
    for (int i = 0; i < 5000; ++i) {
        if (!ref.empty() && rng.nextBounded(3) == 0) {
            const WarpEvent want = ref.top();
            ref.pop();
            const WarpEvent got = q.pop();
            ASSERT_EQ(got.time, want.time);
            // Tie order among equal times is the heap's to choose, but
            // both sides run the same algorithm on the same history, so
            // the popped warp must also agree.
            ASSERT_EQ(got.warp, want.warp);
        } else {
            const Cycles time = rng.nextBounded(1000);
            q.push(time, warp);
            ref.push(WarpEvent{time, warp});
            ++warp;
        }
    }
    while (!ref.empty()) {
        const WarpEvent want = ref.top();
        ref.pop();
        const WarpEvent got = q.pop();
        ASSERT_EQ(got.time, want.time);
        ASSERT_EQ(got.warp, want.warp);
    }
    EXPECT_TRUE(q.empty());

    // The serial engine's shape: a launch admits 16K+ warps at one
    // cycle, and the drain pops a warp, then pushes its successor one
    // compute gap on (so most times tie), one memory round trip on, or
    // none when it retires, sometimes with a newly admitted warp at the
    // pop's own cycle. Midway the queue goes through a checkpoint image
    // and the restored copy must pop exactly as the reference does.
    constexpr uint32_t kLive = 16 * 1024 + 7;
    for (uint32_t w = 0; w < kLive; ++w) {
        const Cycles time = rng.nextBounded(8) == 0 ? rng.nextBounded(16) : 0;
        q.push(time, w);
        ref.push(WarpEvent{time, w});
    }
    warp = kLive;
    constexpr int kSteps = 200000;
    for (int step = 0; step < kSteps; ++step) {
        if (step == kSteps / 2) {
            serial::Writer out;
            out.section(1);
            out(q);
            serial::Reader in(out.finish(0));
            in.section(1);
            EventQueue<uint64_t> restored;
            in(restored);
            ASSERT_EQ(restored.size(), q.size());
            q = restored;
        }
        ASSERT_EQ(q.size(), ref.size());
        ASSERT_EQ(q.nextWarp(), ref.top().warp) << "step " << step;
        const WarpEvent want = ref.top();
        ref.pop();
        const WarpEvent got = q.pop();
        ASSERT_EQ(got.time, want.time) << "step " << step;
        ASSERT_EQ(got.warp, want.warp) << "step " << step;
        const uint64_t r = rng.nextBounded(100);
        if (r != 0) {
            const Cycles next =
                got.time + (r < 90 ? 4 : 200 + rng.nextBounded(400));
            q.push(next, got.warp);
            ref.push(WarpEvent{next, got.warp});
        }
        if (r == 0 || r == 99) {
            q.push(got.time, warp);
            ref.push(WarpEvent{got.time, warp});
            ++warp;
        }
    }
    EXPECT_GE(q.size(), 16u * 1024u);
}

/**
 * One queue image written field by field: the push count, then the
 * heap as (time, seq, warp) triples.
 */
std::string
queueImage(uint64_t pushes, const std::vector<QueuedEvent> &heap)
{
    serial::Writer out;
    out.section(1);
    uint64_t n = heap.size();
    out(pushes, n);
    for (QueuedEvent e : heap)
        out(e.time, e.seq, e.warp);
    return out.finish(0);
}

template <class Key>
EventQueue<Key>
loadQueue(const std::string &image)
{
    serial::Reader in(image);
    in.section(1);
    EventQueue<Key> q;
    in(q);
    return q;
}

TEST(EventQueueEquivalence, HeapRefusesUnpackableEvents)
{
    // An 8-byte entry packs a 40-bit time over a 24-bit warp slot.
    using Narrow = EventQueue<uint64_t>;
    const Cycles max_time = (Cycles{1} << Narrow::kTimeBits) - 1;
    const uint32_t max_warp = (1u << Narrow::kSlotBits) - 1;
    Narrow q;
    EXPECT_THROW(q.push(max_time + 1, 0), SimError);
    EXPECT_THROW(q.push(0, max_warp + 1), SimError);
    EXPECT_TRUE(q.empty());
    q.push(max_time, max_warp);
    const WarpEvent e = q.pop();
    EXPECT_EQ(e.time, max_time);
    EXPECT_EQ(e.warp, max_warp);

    // The same limits hold for a checkpoint image, and an 8-byte entry
    // has no sequence number.
    {
        Narrow r = loadQueue<uint64_t>(queueImage(0, {{max_time, 0, 3}}));
        const WarpEvent got = r.pop();
        EXPECT_EQ(got.time, max_time);
        EXPECT_EQ(got.warp, 3u);
        EXPECT_TRUE(r.empty());
    }
    EXPECT_THROW(loadQueue<uint64_t>(queueImage(0, {{max_time + 1, 0, 3}})),
                 SimError);
    EXPECT_THROW(loadQueue<uint64_t>(queueImage(0, {{0, 0, max_warp + 1}})),
                 SimError);
    EXPECT_THROW(loadQueue<uint64_t>(queueImage(0, {{0, 1, 3}})), SimError);

    // A 16-byte entry keeps all 64 time bits and packs a 40-bit push
    // count over the same 24-bit slot.
    using Wide = EventQueue<uint128_t>;
    const uint64_t max_seq = (uint64_t{1} << Wide::kSeqBits) - 1;
    const Cycles far = ~Cycles{0};
    Wide w;
    EXPECT_THROW(w.push(0, max_warp + 1), SimError);
    w.push(far, max_warp);
    w.push(max_time + 1, 0);
    EXPECT_EQ(w.pop().time, max_time + 1);
    const WarpEvent last = w.pop();
    EXPECT_EQ(last.time, far);
    EXPECT_EQ(last.warp, max_warp);
    {
        Wide r = loadQueue<uint128_t>(
            queueImage(max_seq, {{far, max_seq - 1, max_warp}}));
        r.push(far, 1); // takes the last sequence number
        EXPECT_THROW(r.push(far, 2), SimError);
        EXPECT_EQ(r.pop().warp, max_warp);
        EXPECT_EQ(r.pop().warp, 1u);
        EXPECT_TRUE(r.empty());
    }
    EXPECT_THROW(loadQueue<uint128_t>(queueImage(0, {{0, max_seq + 1, 3}})),
                 SimError);
    EXPECT_THROW(loadQueue<uint128_t>(queueImage(0, {{0, 0, max_warp + 1}})),
                 SimError);
}

TEST(EventQueueEquivalence, WideEntriesPopSameTimesFifoWithinTies)
{
    Rng rng(43);
    EventQueue<uint128_t> q;
    std::multimap<Cycles, uint32_t> ref; // FIFO within a key
    uint32_t warp = 0;
    Cycles floor = 0; // the last popped time
    const auto popOne = [&]() {
        const auto it = ref.begin();
        ASSERT_EQ(q.nextWarp(), it->second);
        const WarpEvent got = q.pop();
        ASSERT_EQ(got.time, it->first);
        ASSERT_EQ(got.warp, it->second); // FIFO among equal times
        floor = it->first;
        ref.erase(it);
    };
    for (int i = 0; i < 20000; ++i) {
        if (i == 10000) {
            // Midway through a checkpoint image: the push count travels
            // too, so later ties still pop behind the restored ones.
            serial::Writer out;
            out.section(1);
            out(q);
            serial::Reader in(out.finish(0));
            in.section(1);
            EventQueue<uint128_t> restored;
            in(restored);
            ASSERT_EQ(restored.size(), q.size());
            q = restored;
        }
        if (!ref.empty() && rng.nextBounded(3) == 0) {
            ASSERT_NO_FATAL_FAILURE(popOne()) << "push " << i;
            continue;
        }
        // Mostly at or after the last pop; one push in eight lands
        // below it, as a sharded lane's late successor events do.
        Cycles time = floor + rng.nextBounded(64);
        if (rng.nextBounded(8) == 0)
            time = floor - std::min<Cycles>(floor, rng.nextBounded(16));
        q.push(time, warp);
        ref.emplace(time, warp);
        ++warp;
    }
    while (!ref.empty())
        ASSERT_NO_FATAL_FAILURE(popOne());
    EXPECT_TRUE(q.empty());
}

} // namespace
} // namespace ladm
