/**
 * @file
 * Sectored set-associative cache.
 *
 * Matches the NVIDIA-style organization Accel-Sim models: 128-byte lines
 * tracked by tag, filled at 32-byte sector granularity. A lookup can
 * therefore end three ways: full hit, sector miss (tag resident, sector
 * absent -> fetch one sector), or line miss (allocate a victim way).
 *
 * The cache is purely functional; timing (hit latency, bank/crossbar
 * occupancy) is applied by the owning simulator component. Insertion is a
 * per-access decision so the NUMA policies (RTWICE / RONCE bypassing) can
 * be expressed by the caller.
 */

#ifndef LADM_CACHE_CACHE_HH
#define LADM_CACHE_CACHE_HH

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "common/host_line.hh"
#include "common/types.hh"
#include "mem/address.hh"

namespace ladm
{

namespace telemetry
{
class StatRegistry;
}

/** Outcome of one cache lookup. */
enum class AccessResult
{
    Hit,        ///< tag and sector both present
    SectorMiss, ///< tag present, requested sector absent
    Miss,       ///< tag absent
};

/** Eviction side-effects of an allocating access. */
struct EvictInfo
{
    bool evicted = false;     ///< a valid victim line was displaced
    Addr lineAddr = 0;        ///< victim's line base address
    uint8_t dirtyMask = 0;    ///< victim's dirty sectors (bit per sector)
};

class SectoredCache
{
  public:
    /**
     * @param size  total capacity in bytes
     * @param assoc ways per set
     * @param name  stat prefix
     */
    SectoredCache(Bytes size, int assoc, std::string name);

    /**
     * Look up @p addr (any byte address; the containing 32B sector is
     * accessed). Defined inline below: the L1/L2 lookups dominate the
     * simulator's per-access cost, so they must inline into the caller
     * (forced, so no out-of-line copy remains).
     *
     * @param is_write  writes set the sector dirty bit
     * @param allocate  on a miss, whether to insert (false = bypass)
     * @param evict     optional out-param describing a displaced victim
     */
    [[gnu::always_inline]] AccessResult access(Addr addr, bool is_write,
                                               bool allocate,
                                               EvictInfo *evict = nullptr);

    /** True iff addr's sector is currently present (no LRU update). */
    bool probe(Addr addr) const;

    /**
     * Hint the CPU to pull @p addr's tag set into cache ahead of an
     * access() -- lets the miss latency overlap earlier work (e.g. the
     * L1 lookup in front of an L2). No architectural effect.
     */
    void prefetchSet(Addr addr) const;

    /**
     * Drop @p addr's sector if present (write-invalidate of the
     * write-through L1s: a write must not leave a stale copy behind).
     * Not counted as an access; a line left with no valid sectors is
     * freed.
     *
     * @return true iff the sector was present.
     */
    bool invalidateSector(Addr addr);

    /**
     * Drop every sector of every line overlapping [lo, hi) -- the
     * whole-page invalidation the fault-degradation rescue needs when a
     * page leaves a failed chiplet. Not counted as accesses.
     * @return number of sectors dropped (valid, not just dirty).
     */
    uint64_t invalidateRange(Addr lo, Addr hi);

    /**
     * Invalidate everything (kernel-boundary software coherence of [51]).
     * @return number of dirty sectors dropped (writeback traffic).
     */
    uint64_t invalidateAll();

    // --- statistics ---------------------------------------------------------
    uint64_t accesses() const { return accesses_; }
    uint64_t hits() const { return hits_; }
    uint64_t sectorMisses() const { return sectorMisses_; }
    uint64_t lineMisses() const { return lineMisses_; }
    uint64_t bypasses() const { return bypasses_; }
    double hitRate() const
    {
        return accesses_ ? static_cast<double>(hits_) / accesses_ : 0.0;
    }

    void resetStats();

    /**
     * Publish this cache's counters (plus a derived hit-rate formula)
     * into @p reg under dotted @p path, e.g. "node3.l2". Pull-based: no
     * cost on the access path; the registry must not outlive the cache.
     */
    void registerStats(telemetry::StatRegistry &reg,
                       const std::string &path) const;

    size_t numSets() const { return numSets_; }
    int assoc() const { return assoc_; }

    /** Largest LRU stamp a way holds; the clock renumbers past it. */
    static constexpr uint64_t kMaxStamp = (uint64_t{1} << 25) - 1;

    /** Test hook: advance the LRU clock by @p n without accessing. */
    void debugAdvanceClock(uint64_t n) { useClock_ += n; }

    /** Checkpoint tags/metadata/LRU clock (snapshot/component_state.cc). */
    template <class Ar> void io(Ar &ar);

  private:
    static_assert(kLineSize / kSectorSize == 4,
                  "a way packs four valid and four dirty sector bits");

    /**
     * One way in one 8-byte word, from bit 0: four valid-sector bits,
     * four dirty-sector bits, a 31-bit tag and a 25-bit LRU stamp. The
     * tag is the line index + 1 (kMaxSimAddr allows line index
     * 2^30 - 1), so an all-zero word is an empty way. Every access
     * stamps one way with a fresh clock value, so the resident ways of
     * a set carry distinct stamps; with the stamp on top, comparing
     * whole words orders them by recency, and an empty way sorts first.
     */
    using Way = uint64_t;
    static constexpr int kDirtyShift = 4;
    static constexpr int kTagShift = 8;
    static constexpr int kStampShift = 39;
    static constexpr uint64_t kValidMask = 0xF;
    static constexpr uint64_t kFlagsMask = 0xFF;
    static constexpr uint64_t kTagMask = ((uint64_t{1} << 31) - 1)
                                         << kTagShift;

    static uint64_t tagOf(uint64_t line) { return (line + 1) << kTagShift; }
    static Addr
    lineAddrOf(Way w)
    {
        return (((w & kTagMask) >> kTagShift) - 1) * kLineSize;
    }
    static uint8_t
    dirtyOf(Way w)
    {
        return static_cast<uint8_t>((w >> kDirtyShift) & kValidMask);
    }

    size_t setIndex(uint64_t line) const;
    const Way *
    setOf(uint64_t line) const
    {
        return &ways_[setIndex(line) * assoc_];
    }
    /** findWay()'s "line not resident" result. */
    static constexpr size_t kNoWay = ~size_t{0};
    /**
     * Index into ways_ of the way holding @p line (whose tag is @p tag):
     * the memoised way when its tag matches, else the set scan's match,
     * else kNoWay.
     */
    size_t findWay(uint64_t line, uint64_t tag) const;
    /** The way of the set at ways_[@p base] holding @p tag, or kNoWay. */
    size_t scanSet(size_t base, uint64_t tag) const;

    /**
     * The clock passed kMaxStamp: give each set's resident ways stamps
     * 1..k in their current order and restart the clock above them, so
     * every later victim choice is the one the unbounded clock makes.
     */
    [[gnu::cold]] void renumberStamps();

    std::string name_;
    int assoc_;
    size_t numSets_ = 0;
    /**
     * Set-major way array on 64-byte host lines: a 4-way L1 set is half
     * a line and a 16-way L2 set two, so a lookup's tag scan and stamp
     * update touch only those.
     */
    std::vector<Way, HostLineAllocator<Way>> ways_;
    /** log2(numSets_) when it is a power of two, else -1 (slow path). */
    int setShift_ = -1;
    uint64_t setMask_ = 0;
    uint64_t useClock_ = 0;
    /**
     * Index into ways_ of the way the last hit, sector fill or
     * allocation touched: the next lookup tries it before hashing and
     * scanning (a warp step's consecutive sectors share a line). It is
     * trusted only while that way's tag equals the looked-up tag, and
     * a tag is resident in at most one way of one set, so it finds
     * exactly the way the scan would. Derived state: not checkpointed,
     * not hashed, reset on load.
     */
    size_t memo_ = 0;
    /** A line may have been allocated since the last invalidateAll(). */
    bool populated_ = false;

    uint64_t accesses_ = 0;
    uint64_t hits_ = 0;
    uint64_t sectorMisses_ = 0;
    uint64_t lineMisses_ = 0;
    uint64_t bypasses_ = 0;
};

// --- hot path, inline ------------------------------------------------------

inline size_t
SectoredCache::setIndex(uint64_t line) const
{
    // XOR-folded set hash (as GPUs and Accel-Sim use): without it,
    // column-strided access patterns whose row pitch is a power of two
    // concentrate into a few sets and conflict-thrash pathologically.
    uint64_t h = line;
    if (setShift_ >= 0) {
        // numSets_ is a power of two (the common case): identical
        // arithmetic with the divisions strength-reduced to shifts.
        h ^= line >> setShift_;
        h ^= line >> (2 * setShift_);
        h ^= h >> 17;
        return static_cast<size_t>(h & setMask_);
    }
    const size_t n = numSets_;
    h ^= line / n;
    h ^= line / (static_cast<uint64_t>(n) * n);
    h ^= h >> 17;
    return static_cast<size_t>(h % n);
}

inline void
SectoredCache::prefetchSet(Addr addr) const
{
    __builtin_prefetch(setOf(addr / kLineSize));
}

inline size_t
SectoredCache::scanSet(size_t base, uint64_t tag) const
{
    // Every way is compared and a match kept with a select, without an
    // early exit: a tag is resident in at most one way, so this finds
    // the way the first-match scan would, and the loop's only branch is
    // its trip count. On a gather stream the hit position is random, so
    // an early exit mispredicts.
    size_t hit = kNoWay;
    for (int i = 0; i < assoc_; ++i)
        hit = (ways_[base + i] & kTagMask) == tag ? base + i : hit;
    return hit;
}

inline size_t
SectoredCache::findWay(uint64_t line, uint64_t tag) const
{
    if ((ways_[memo_] & kTagMask) == tag)
        return memo_;
    return scanSet(setIndex(line) * assoc_, tag);
}

inline AccessResult
SectoredCache::access(Addr addr, bool is_write, bool allocate,
                      EvictInfo *evict)
{
    assert(addr < kMaxSimAddr && "address exceeds the cache tag field");
    ++accesses_;
    if (++useClock_ > kMaxStamp) [[unlikely]]
        renumberStamps();

    const uint64_t line = addr / kLineSize;
    const uint64_t sbit = uint64_t{1} << ((addr / kSectorSize) & 3);
    const uint64_t dbit = sbit << kDirtyShift;
    const uint64_t tag = tagOf(line);
    const uint64_t stamp = useClock_ << kStampShift;

    // findWay(), keeping the set's base for the victim scan below.
    size_t i = memo_;
    size_t base = 0;
    if ((ways_[i] & kTagMask) != tag) {
        base = setIndex(line) * assoc_;
        i = scanSet(base, tag);
    }
    if (i != kNoWay) {
        memo_ = i;
        uint64_t flags = ways_[i] & kFlagsMask;
        if (flags & sbit) {
            if (is_write)
                flags |= dbit;
            ways_[i] = stamp | tag | flags;
            ++hits_;
            return AccessResult::Hit;
        }
        // Tag hit, sector absent: fill just the sector.
        ++sectorMisses_;
        if (allocate)
            flags |= is_write ? sbit | dbit : sbit;
        else
            ++bypasses_;
        ways_[i] = stamp | tag | flags;
        return AccessResult::SectorMiss;
    }

    ++lineMisses_;
    if (!allocate) {
        ++bypasses_;
        return AccessResult::Miss;
    }

    // The LRU victim, preferring the first empty way: the first
    // smallest word. Ways fill in order, so a set that is not full
    // almost always has its last way empty; its victim is then the
    // first empty way. Otherwise one select-based minimum runs over the
    // whole set: a hole an invalidation left is 0, below every resident
    // word, and the strict < keeps the first of equal minima.
    size_t victim = base;
    if (ways_[base + assoc_ - 1] == 0) {
        while (ways_[victim] != 0)
            ++victim;
    } else {
        Way oldest = ways_[base];
        for (int k = 1; k < assoc_; ++k) {
            const Way wk = ways_[base + k];
            victim = wk < oldest ? base + k : victim;
            oldest = wk < oldest ? wk : oldest;
        }
    }
    Way &w = ways_[victim];
    if (w != 0 && evict) {
        evict->evicted = true;
        evict->lineAddr = lineAddrOf(w);
        evict->dirtyMask = dirtyOf(w);
    }
    w = stamp | tag | (is_write ? sbit | dbit : sbit);
    memo_ = victim;
    populated_ = true;
    return AccessResult::Miss;
}

inline bool
SectoredCache::probe(Addr addr) const
{
    const uint64_t line = addr / kLineSize;
    const size_t i = findWay(line, tagOf(line));
    return i != kNoWay && (ways_[i] >> ((addr / kSectorSize) & 3)) & 1;
}

inline bool
SectoredCache::invalidateSector(Addr addr)
{
    const uint64_t line = addr / kLineSize;
    const size_t i = findWay(line, tagOf(line));
    if (i == kNoWay)
        return false;
    const uint64_t sbit = uint64_t{1} << ((addr / kSectorSize) & 3);
    Way &w = ways_[i];
    const bool present = (w & sbit) != 0;
    w &= ~(sbit | sbit << kDirtyShift);
    if ((w & kValidMask) == 0)
        w = 0;
    return present;
}

} // namespace ladm

#endif // LADM_CACHE_CACHE_HH
