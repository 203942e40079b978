/**
 * @file
 * MshrTable: the per-node outstanding-miss table (sector address ->
 * data-ready cycle) behind MSHR merging.
 *
 * One probe of this table sits on every L1-missing access, so it is an
 * open-addressed, power-of-two hash table with linear probing and
 * Fibonacci hashing. Entries are never deleted one by one, so there are
 * no tombstones: expiry rebuilds the table.
 *
 * A slot tracks one 128-byte line, as a GPU's MSHR does: a 32-bit line
 * key (line index + 1, so a zeroed key is an empty slot) and one 32-bit
 * ready offset per sector, counted from a per-table base. The keys live
 * in one array and the offsets in a parallel one, so a probe reads only
 * keys (16 to a 64-byte host line). A coalesced warp step misses on
 * about four sectors per line; they share one slot and one probe.
 *
 * An offset of zero means the sector is absent. A sector whose ready
 * cycle is at or before the base has expired for every later lookup
 * (see below), so it is not recorded: offsets 1 .. 2^32 - 1 cover the
 * live range, and an absent sector of a present line reads as not found.
 *
 * locate() first tries the slot of its last hit or insert (the memo).
 * A key is unique within the table, so a memo slot holding the line's
 * key is exactly the slot the probe would find; any other memo value
 * only costs the compare. The memo is derived state: not checkpointed,
 * not hashed, reset by every rebuild and load.
 *
 * The table owns expiry. A sector whose ready cycle is at or before the
 * current cycle can never satisfy a merge again (lookup times never go
 * backwards on a node), so it is dead weight. An insert of a new line
 * that would pass 3/4 load first sweeps: every expired sector becomes
 * absent, a line left with no sector goes, and the base advances to
 * the sweep's cycle. The table doubles only if live lines still fill
 * half of it. Capacity therefore tracks the live set of lines (at most
 * 4x its peak), and a sweep is paid for by the quarter-table of new
 * lines before it.
 *
 * Semantically this is a per-sector map with expired entries dropped
 * at unspecified times. A lookup no earlier than every insert's current
 * cycle cannot tell: a dropped entry was ready at or before it, so it
 * would not have merged.
 */

#ifndef LADM_SIM_MSHR_TABLE_HH
#define LADM_SIM_MSHR_TABLE_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "common/sim_error.hh"
#include "common/types.hh"
#include "mem/address.hh"

namespace ladm
{

class MshrTable
{
  public:
    MshrTable() { reset(kMinCapacity); }

    static constexpr size_t kSectorsPerLine = kLineSize / kSectorSize;
    /** Fewest line slots a table has (a power of two). */
    static constexpr size_t kMinCapacity = 1024;

    /** Data-ready cycle of an in-flight miss on @p addr, if any. */
    std::optional<Cycles>
    find(Addr addr) const
    {
        const Ref r = locate(addr);
        if (!r.found)
            return std::nullopt;
        return readyAt(r);
    }

    /**
     * Hint the CPU to pull @p addr's home slot (key and offsets) into
     * cache ahead of the locate() that follows, hiding the probe's miss
     * latency behind the L1 lookup. No architectural effect.
     */
    void
    prefetch(Addr addr) const
    {
        const size_t i = indexOf(keyOf(addr));
        __builtin_prefetch(&keys_[i]);
        __builtin_prefetch(&offs_[i * kSectorsPerLine]);
    }

    /**
     * Position handle from locate(): either the slot holding the line's
     * key or the empty slot terminating its probe chain, and the
     * sector's ready offset there (0: absent). Valid only until the next
     * mutation (insert / clear).
     */
    struct Ref
    {
        size_t index;
        uint32_t offset;
        bool found; ///< the sector is present
    };

    /** Single-probe lookup whose result can later feed insertAt(). */
    Ref
    locate(Addr addr) const
    {
        const uint32_t key = keyOf(addr);
        size_t i = memo_;
        if (keys_[i] != key) {
            for (i = indexOf(key); keys_[i] != key; i = (i + 1) & mask_)
                if (keys_[i] == 0)
                    return {i, 0, false};
            memo_ = i;
        }
        const uint32_t off = offs_[i * kSectorsPerLine + sectorOf(addr)];
        return {i, off, off != 0};
    }

    /** Completion cycle at a located slot (@p r must have found set). */
    Cycles readyAt(Ref r) const { return base_ + r.offset; }

    /**
     * Insert or overwrite @p addr using a Ref from locate() with no
     * intervening mutation -- the second probe of a find-then-insert
     * pair collapses into a slot store. @p now is the current cycle:
     * the horizon at or before which entries have expired, should this
     * insert need room. A ready cycle at or before the base is already
     * expired for every later lookup, so it leaves the sector absent.
     * @throws SimError if @p ready is 2^32 or more cycles past @p now.
     */
    void
    insertAt(Ref r, Addr addr, Cycles ready, Cycles now)
    {
        const Cycles off = ready > base_ ? ready - base_ : 0;
        if (off <= UINT32_MAX) [[likely]] {
            uint32_t &slot = offs_[r.index * kSectorsPerLine + sectorOf(addr)];
            if (keys_[r.index] != 0) {
                slot = static_cast<uint32_t>(off);
                return;
            }
            if (off == 0)
                return;
            if ((size_ + 1) * 4 <= keys_.size() * 3) { // load <= 3/4
                keys_[r.index] = keyOf(addr);
                slot = static_cast<uint32_t>(off);
                ++size_;
                memo_ = r.index;
                return;
            }
        }
        makeRoom(now, ready);
        insertAt(locate(addr), addr, ready, now);
    }

    /** Insert or overwrite the completion cycle for @p addr. */
    void
    insert(Addr addr, Cycles ready, Cycles now)
    {
        insertAt(locate(addr), addr, ready, now);
    }

    /**
     * Visit every present sector as (addr, ready), line by line in slot
     * order; @p f must not mutate the table.
     */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (size_t i = 0; i < keys_.size(); ++i) {
            if (keys_[i] == 0)
                continue;
            const Addr line = static_cast<Addr>(keys_[i] - 1) * kLineSize;
            for (size_t s = 0; s < kSectorsPerLine; ++s)
                if (const uint32_t off = offs_[i * kSectorsPerLine + s])
                    f(line + s * kSectorSize, base_ + off);
        }
    }

    /** Lines held: a line stays until a sweep finds all its sectors gone. */
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** Line slots: a power of two, at most 4x the peak live set. */
    size_t capacity() const { return keys_.size(); }

    /** Drop every entry (kernel-boundary flush). */
    void
    clear()
    {
        std::fill(keys_.begin(), keys_.end(), 0);
        std::fill(offs_.begin(), offs_.end(), 0);
        size_ = 0;
        base_ = 0;
        memo_ = 0;
    }

    /** Checkpoint both slot arrays verbatim (snapshot/component_state.cc). */
    template <class Ar> void io(Ar &ar);

  private:
    /** One surviving line of a sweep, rebased. */
    struct Line
    {
        Line() {} // left uninitialized: a sweep writes before it reads
        uint32_t key;
        uint32_t offset[kSectorsPerLine];
    };

    static uint32_t
    keyOf(Addr addr)
    {
        assert(addr < kMaxSimAddr && "address exceeds MSHR key space");
        return static_cast<uint32_t>(addr / kLineSize) + 1;
    }

    static size_t
    sectorOf(Addr addr)
    {
        return (addr / kSectorSize) % kSectorsPerLine;
    }

    size_t
    indexOf(uint32_t key) const
    {
        // Fibonacci hashing: multiply by 2^64/phi and keep the top bits.
        const uint64_t h = key * UINT64_C(0x9E3779B97F4A7C15);
        return static_cast<size_t>(h >> shift_) & mask_;
    }

    void
    reset(size_t capacity)
    {
        keys_.assign(capacity, 0);
        offs_.assign(capacity * kSectorsPerLine, 0);
        indexFor(capacity);
        size_ = 0;
        memo_ = 0;
    }

    /** Size the index hash for a power-of-two @p capacity. */
    void
    indexFor(size_t capacity)
    {
        mask_ = capacity - 1;
        shift_ = 1;
        while ((size_t(1) << (64 - shift_)) > capacity)
            ++shift_;
    }

    /**
     * Slow path of an insert that found the table at 3/4 load or its
     * ready offset out of range: rebuild the table without the sectors
     * expired at @p now, with the base advanced to @p now, at double
     * the size if live lines still fill half of it. Which sectors
     * expired is random, so the pass over the old slots is branch-free.
     */
    void
    makeRoom(Cycles now, Cycles ready)
    {
        const Cycles base = std::max(base_, now);
        ladm_require(ready <= base || ready - base <= UINT32_MAX,
                     "in-flight miss ready at cycle ", ready,
                     " is 2^32 or more cycles past cycle ", base,
                     ": beyond the MSHR table's ready-offset range");
        // A sector is live iff its offset exceeds the base's advance, and
        // then the rebased offset is at least 1; an expired one becomes
        // absent (0), also inside a line that stays. An advance of 2^32
        // or more expires everything, as the clamp does. Empty slots hold
        // zero offsets, so they never survive. The store is
        // unconditional; only the cursor depends on liveness. Each slot
        // is emptied as it is read, which leaves the arrays cleared.
        const auto shift = static_cast<uint32_t>(
            std::min<Cycles>(base - base_, UINT32_MAX));
        const size_t cap = keys_.size();
        if (scratch_.size() < cap)
            scratch_.resize(cap);
        uint32_t *keys = keys_.data();
        uint32_t *offs = offs_.data();
        Line *kept = scratch_.data();
        size_t n = 0;
        for (size_t i = 0; i < cap; ++i) {
            Line &l = kept[n];
            l.key = std::exchange(keys[i], 0);
            uint32_t any = 0;
            for (size_t s = 0; s < kSectorsPerLine; ++s) {
                const uint32_t o =
                    std::exchange(offs[i * kSectorsPerLine + s], 0);
                const uint32_t live = -static_cast<uint32_t>(o > shift);
                l.offset[s] = (o - shift) & live;
                any |= l.offset[s];
            }
            n += any != 0;
        }

        if ((n + 1) * 2 > cap)
            reset(cap * 2);
        base_ = base;
        memo_ = 0;
        keys = keys_.data();
        offs = offs_.data();
        for (size_t k = 0; k < n; ++k) {
            size_t i = indexOf(kept[k].key);
            while (keys[i] != 0)
                i = (i + 1) & mask_;
            keys[i] = kept[k].key;
            std::memcpy(&offs[i * kSectorsPerLine], kept[k].offset,
                        sizeof kept[k].offset);
        }
        size_ = n;
    }

    std::vector<uint32_t> keys_; ///< line index + 1; 0 = empty
    /** kSectorsPerLine ready offsets per slot; 0 = absent. */
    std::vector<uint32_t> offs_;
    size_t mask_ = 0;
    int shift_ = 0;
    size_t size_ = 0;
    /** Cycle the ready offsets count from; advanced by each sweep. */
    Cycles base_ = 0;
    /** Slot of the last hit or insert: derived, never checkpointed. */
    mutable size_t memo_ = 0;
    /** Sweep buffer, reused across sweeps: derived, never checkpointed. */
    std::vector<Line> scratch_;
};

} // namespace ladm

#endif // LADM_SIM_MSHR_TABLE_HH
