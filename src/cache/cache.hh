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

#include <cstdint>
#include <new>
#include <string>
#include <vector>

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

/** Allocator that starts every array on a 64-byte host cache line. */
template <typename T>
struct HostLineAllocator
{
    using value_type = T;
    static constexpr std::align_val_t kAlign{64};

    HostLineAllocator() = default;
    template <typename U>
    HostLineAllocator(const HostLineAllocator<U> &)
    {
    }
    T *
    allocate(size_t n)
    {
        return static_cast<T *>(::operator new(n * sizeof(T), kAlign));
    }
    void deallocate(T *p, size_t) { ::operator delete(p, kAlign); }
    template <typename U>
    bool
    operator==(const HostLineAllocator<U> &) const
    {
        return true;
    }
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

    /**
     * Refuse to run once the LRU clock nears the 48-bit stamp field. A
     * kernel cannot make 2^47 accesses, so checking once per kernel
     * keeps the check off the access path.
     * @throws SimError when the clock has passed 2^47.
     */
    void checkStampHeadroom() const;

    /** Test hook: advance the LRU clock by @p n without accessing. */
    void debugAdvanceClock(uint64_t n) { useClock_ += n; }

    /** Checkpoint tags/metadata/LRU clock (snapshot/component_state.cc). */
    template <class Ar> void io(Ar &ar);

  private:
    static constexpr int kSectorsPerLine =
        static_cast<int>(kLineSize / kSectorSize);

    /**
     * Sentinel for an empty way. Line base addresses are kLineSize-
     * aligned, so the all-ones address can never collide with one --
     * validity folds into the tag itself.
     */
    static constexpr Addr kNoLine = ~Addr{0};

    /**
     * One way in 16 bytes: the tag, then the valid-sector byte, the
     * dirty-sector byte and a 48-bit LRU stamp packed into one word.
     */
    struct Way
    {
        Addr tag = kNoLine;
        uint64_t meta = 0;
    };
    static constexpr int kDirtyShift = 8;
    static constexpr int kStampShift = 16;
    static constexpr uint64_t kFlagsMask = (uint64_t{1} << kStampShift) - 1;
    /** checkStampHeadroom() refuses a clock past this. */
    static constexpr uint64_t kStampHeadroom = uint64_t{1} << 47;

    static uint8_t validOf(uint64_t m) { return static_cast<uint8_t>(m); }
    static uint8_t
    dirtyOf(uint64_t m)
    {
        return static_cast<uint8_t>(m >> kDirtyShift);
    }
    static uint64_t stampOf(uint64_t m) { return m >> kStampShift; }

    size_t setIndex(Addr line_addr) const;

    std::string name_;
    int assoc_;
    size_t numSets_ = 0;
    /**
     * Set-major way array. A set starts on a 64-byte boundary whenever
     * assoc is a multiple of 4, so a 4-way L1 set is one host cache line
     * and a lookup's tag scan and metadata update share it.
     */
    std::vector<Way, HostLineAllocator<Way>> ways_;
    /** log2(numSets_) when it is a power of two, else -1 (slow path). */
    int setShift_ = -1;
    uint64_t setMask_ = 0;
    uint64_t useClock_ = 0;
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
SectoredCache::setIndex(Addr line_addr) const
{
    // XOR-folded set hash (as GPUs and Accel-Sim use): without it,
    // column-strided access patterns whose row pitch is a power of two
    // concentrate into a few sets and conflict-thrash pathologically.
    uint64_t line = line_addr / kLineSize;
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
    __builtin_prefetch(&ways_[setIndex(lineBase(addr)) * assoc_]);
}

inline AccessResult
SectoredCache::access(Addr addr, bool is_write, bool allocate,
                      EvictInfo *evict)
{
    ++accesses_;
    ++useClock_;

    const Addr line = lineBase(addr);
    const int sector = static_cast<int>((addr - line) / kSectorSize);
    const uint64_t sbit = uint64_t{1} << sector;
    const uint64_t dbit = sbit << kDirtyShift;
    const uint64_t stamp = useClock_ << kStampShift;
    Way *const set = &ways_[setIndex(line) * assoc_];

    for (int i = 0; i < assoc_; ++i) {
        if (set[i].tag != line)
            continue;
        uint64_t flags = set[i].meta & kFlagsMask;
        if (flags & sbit) {
            if (is_write)
                flags |= dbit;
            set[i].meta = stamp | flags;
            ++hits_;
            return AccessResult::Hit;
        }
        // Tag hit, sector absent: fill just the sector.
        ++sectorMisses_;
        if (allocate)
            flags |= is_write ? sbit | dbit : sbit;
        else
            ++bypasses_;
        set[i].meta = stamp | flags;
        return AccessResult::SectorMiss;
    }

    ++lineMisses_;
    if (!allocate) {
        ++bypasses_;
        return AccessResult::Miss;
    }

    // Pick the LRU victim (preferring an invalid way).
    int victim = 0;
    for (int i = 0; i < assoc_; ++i) {
        if (set[i].tag == kNoLine) {
            victim = i;
            break;
        }
        if (stampOf(set[i].meta) < stampOf(set[victim].meta))
            victim = i;
    }
    Way &w = set[victim];
    if (w.tag != kNoLine && evict) {
        evict->evicted = true;
        evict->lineAddr = w.tag;
        evict->dirtyMask = dirtyOf(w.meta);
    }
    w.tag = line;
    w.meta = stamp | (is_write ? sbit | dbit : sbit);
    populated_ = true;
    return AccessResult::Miss;
}

inline bool
SectoredCache::probe(Addr addr) const
{
    const Addr line = lineBase(addr);
    const int sector = static_cast<int>((addr - line) / kSectorSize);
    const Way *const set = &ways_[setIndex(line) * assoc_];
    for (int i = 0; i < assoc_; ++i) {
        if (set[i].tag == line)
            return (set[i].meta >> sector) & 1;
    }
    return false;
}

inline bool
SectoredCache::invalidateSector(Addr addr)
{
    const Addr line = lineBase(addr);
    const int sector = static_cast<int>((addr - line) / kSectorSize);
    const uint64_t sbit = uint64_t{1} << sector;
    Way *const set = &ways_[setIndex(line) * assoc_];
    for (int i = 0; i < assoc_; ++i) {
        Way &w = set[i];
        if (w.tag != line)
            continue;
        const bool present = (w.meta & sbit) != 0;
        w.meta &= ~(sbit | sbit << kDirtyShift);
        if (validOf(w.meta) == 0)
            w = Way{};
        return present;
    }
    return false;
}

} // namespace ladm

#endif // LADM_CACHE_CACHE_HH
