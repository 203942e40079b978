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
 * A slot is 8 bytes: a 32-bit sector key (sector index + 1, so a zeroed
 * slot is empty) and the 32-bit ready cycle as an offset from a
 * per-table base. Addresses are bounded by kMaxSimAddr (the allocator
 * enforces it) and in-flight latencies are far below 2^32 cycles, so
 * neither field can alias.
 *
 * The table owns expiry. An entry whose ready cycle is at or before the
 * current cycle can never satisfy a merge again (lookup times never go
 * backwards on a node), so it is dead weight. An insert that would pass
 * 3/4 load first sweeps the dead entries and advances the base to the
 * sweep's cycle; the table doubles only if live entries still fill half
 * of it. Capacity therefore tracks the live set (at most 4x its peak),
 * not the number of distinct sectors a run has missed on, and a sweep
 * is paid for by the quarter-table of inserts before it.
 *
 * Semantically this is the unordered_map it replaces, with expired
 * entries dropped at unspecified times. A lookup no earlier than every
 * insert's current cycle cannot tell: a dropped entry was ready at or
 * before it, so it would not have merged.
 */

#ifndef LADM_SIM_MSHR_TABLE_HH
#define LADM_SIM_MSHR_TABLE_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
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
     * Hint the CPU to pull @p addr's home slot into cache ahead of the
     * locate() that follows, hiding the probe's miss latency behind the
     * L1 lookup. No architectural effect.
     */
    void
    prefetch(Addr addr) const
    {
        __builtin_prefetch(&slots_[indexOf(keyOf(addr))]);
    }

    /**
     * Position handle from locate(): either the slot holding the key or
     * the empty slot terminating its probe chain. Valid only until the
     * next mutation (insert / clear).
     */
    struct Ref
    {
        size_t index;
        bool found;
    };

    /** Single-probe lookup whose result can later feed insertAt(). */
    Ref
    locate(Addr addr) const
    {
        const uint32_t key = keyOf(addr);
        for (size_t i = indexOf(key);; i = (i + 1) & mask_) {
            if (slots_[i].key == key)
                return {i, true};
            if (slots_[i].key == 0)
                return {i, false};
        }
    }

    /** Completion cycle at a located slot (@p r must have found set). */
    Cycles readyAt(Ref r) const { return base_ + slots_[r.index].ready; }

    /**
     * Insert or overwrite @p addr using a Ref from locate() with no
     * intervening mutation -- the second probe of a find-then-insert
     * pair collapses into a slot store. @p now is the current cycle:
     * the horizon at or before which entries have expired, should this
     * insert need room. A ready cycle at or before the base is stored
     * as the base; both are already expired for every later lookup.
     * @throws SimError if @p ready is 2^32 or more cycles past @p now.
     */
    void
    insertAt(Ref r, Addr addr, Cycles ready, Cycles now)
    {
        const Cycles off = ready > base_ ? ready - base_ : 0;
        if (off <= UINT32_MAX) [[likely]] {
            if (r.found) {
                slots_[r.index].ready = static_cast<uint32_t>(off);
                return;
            }
            if ((size_ + 1) * 4 <= slots_.size() * 3) { // load <= 3/4
                slots_[r.index] = Slot{keyOf(addr),
                                       static_cast<uint32_t>(off)};
                ++size_;
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

    /** Visit every (addr, ready) entry; @p f must not mutate the table. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (const Slot &s : slots_)
            if (s.key != 0)
                f(static_cast<Addr>(s.key - 1) * kSectorSize,
                  base_ + s.ready);
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** Slot count: a power of two, at most 4x the peak live set. */
    size_t capacity() const { return slots_.size(); }

    /** Drop every entry (kernel-boundary flush). */
    void
    clear()
    {
        std::fill(slots_.begin(), slots_.end(), Slot{});
        size_ = 0;
        base_ = 0;
    }

    /** Checkpoint the slot array verbatim (snapshot/component_state.cc). */
    template <class Ar> void io(Ar &ar);

  private:
    struct Slot
    {
        uint32_t key = 0;   ///< sector index + 1; 0 = empty
        uint32_t ready = 0; ///< ready cycle - base_
    };

    static constexpr size_t kMinCapacity = 1024; // power of two

    static uint32_t
    keyOf(Addr addr)
    {
        assert(addr < kMaxSimAddr && "address exceeds MSHR key space");
        return static_cast<uint32_t>(addr / kSectorSize) + 1;
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
        slots_.assign(capacity, Slot{});
        indexFor(capacity);
        size_ = 0;
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
     * ready offset out of range: rebuild the table without the entries
     * expired at @p now, with the base advanced to @p now, at double
     * the size if live entries still fill half of it. Which entries
     * expired is random, so both passes over the old slots are
     * branch-free.
     */
    void
    makeRoom(Cycles now, Cycles ready)
    {
        const Cycles base = std::max(base_, now);
        ladm_require(ready <= base || ready - base <= UINT32_MAX,
                     "in-flight miss ready at cycle ", ready,
                     " is 2^32 or more cycles past cycle ", base,
                     ": beyond the MSHR table's ready-offset range");
        const Cycles old_base = base_;
        const auto live = [&](const Slot &s) -> size_t {
            return (s.key != 0) & (old_base + s.ready > now);
        };
        size_t n = 0;
        for (const Slot &s : slots_)
            n += live(s);
        // Compact the survivors, rebased. Every survivor completes after
        // now, so its offset exceeds delta: neither the narrowing nor
        // the subtraction can lose bits for an entry that is kept. The
        // store is unconditional; only the cursor depends on liveness.
        std::vector<Slot> keep(n + 1);
        const auto delta = static_cast<uint32_t>(base - old_base);
        n = 0;
        for (const Slot &s : slots_) {
            keep[n] = Slot{s.key, s.ready - delta};
            n += live(s);
        }

        if ((n + 1) * 2 > slots_.size())
            reset(slots_.size() * 2);
        else
            clear();
        base_ = base;
        for (size_t k = 0; k < n; ++k) {
            size_t i = indexOf(keep[k].key);
            while (slots_[i].key != 0)
                i = (i + 1) & mask_;
            slots_[i] = keep[k];
        }
        size_ = n;
    }

    std::vector<Slot> slots_;
    size_t mask_ = 0;
    int shift_ = 0;
    size_t size_ = 0;
    /** Cycle the ready offsets count from; advanced by each sweep. */
    Cycles base_ = 0;
};

} // namespace ladm

#endif // LADM_SIM_MSHR_TABLE_HH
