/**
 * @file
 * EventQueue: the kernel engine's pending-warp-event scheduler, a flat
 * binary min-heap of packed entries, templated on the entry width:
 *
 *  - 8 bytes, (time << 24 | warp slot): the serial lane's queue. Push
 *    and pop perform libstdc++'s std::push_heap / std::pop_heap step for
 *    step -- the std::priority_queue the engine historically used -- so
 *    the pop order (including the order of EQUAL-time events, which
 *    falls out of the heap structure) is bit-compatible with every
 *    recorded result.
 *
 *  - 16 bytes, (time << 64 | seq << 24 | warp slot) with seq the push
 *    count: the sharded lanes' queue. No two entries tie on (time, seq),
 *    so equal-time events pop in insertion (FIFO) order.
 *
 * Both widths compare `entry >> 24`, so one sift-up / sift-down serves
 * both. Tie order is behavior-relevant: simultaneous accesses book
 * bandwidth servers in pop order, so per-warp delays -- and therefore
 * whole-run metrics -- shift with it (measured on fig09: several
 * workloads move by a few percent under a different tie-break). The
 * serial lane keeps the 8-byte entry for its recorded results and its
 * cost (a 16-byte compare adds ~40 ns per pop+push); the sharded lanes'
 * FIFO order is part of their own determinism contract. See
 * docs/performance.md.
 *
 * The array is 1-based on 64-byte host lines: a node's two children
 * share an aligned pair and its four grandchildren one aligned group
 * (32 bytes of 8-byte entries, one line of 16-byte ones), which the
 * sift-down prefetches a level ahead.
 */

#ifndef LADM_SIM_EVENT_QUEUE_HH
#define LADM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/host_line.hh"
#include "common/sim_error.hh"
#include "common/types.hh"

namespace ladm
{

using uint128_t = unsigned __int128;

/** One pending wake-up: warp slot @p warp acts at cycle @p time. */
struct WarpEvent
{
    Cycles time;
    uint32_t warp;

    bool operator>(const WarpEvent &o) const { return time > o.time; }
    template <class Ar> void io(Ar &ar);
};

/** One queue entry as a checkpoint lists it (seq is 0 in 8-byte ones). */
struct QueuedEvent
{
    Cycles time;
    uint64_t seq;
    uint32_t warp;

    template <class Ar> void io(Ar &ar);
};

template <class Key>
class EventQueue
{
    static_assert(std::is_same_v<Key, uint64_t> ||
                  std::is_same_v<Key, uint128_t>);

  public:
    /** 16-byte entries carry a push sequence number: FIFO among ties. */
    static constexpr bool kFifo = sizeof(Key) == 16;
    static constexpr int kSlotBits = 24;
    /** Time bits of an 8-byte entry (a 16-byte one keeps all 64). */
    static constexpr int kTimeBits = 40;
    /** Sequence bits of a 16-byte entry. */
    static constexpr int kSeqBits = 40;

    EventQueue()
    {
        heap_.reserve(1024);
        heap_.push_back(0); // slot 0 unused: the heap is 1-based
    }

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    /**
     * @throws SimError when the entry does not pack: in 8-byte entries
     *         @p time needs more than 40 bits, in 16-byte ones the push
     *         count more than 40, or @p warp more than 24 in either.
     */
    void
    push(Cycles time, uint32_t warp)
    {
        const Key e = pack(time, kFifo ? seq_ : 0, warp);
        if constexpr (kFifo)
            ++seq_;
        ++size_;
        heap_.push_back(e);
        siftUp(size_, e);
    }

    /** Remove and return the earliest event. Must not be empty. */
    WarpEvent
    pop()
    {
        --size_;
        const Key top = heap_[1];
        const Key last = heap_.back();
        heap_.pop_back();
        if (size_ > 0)
            siftDown(last);
        return WarpEvent{timeOf(top), slotOf(top)};
    }

    /**
     * Non-empty: the warp slot of the event pop() returns next, for
     * prefetching its state ahead of time.
     */
    uint32_t nextWarp() const { return slotOf(heap_[1]); }

    /**
     * Checkpoint the queue (snapshot/component_state.cc): the heap as
     * (time, seq, warp) triples in array order and the push count. The
     * heap is not rebuilt by re-pushing: the structural order of
     * EQUAL-time 8-byte entries is behavior-relevant (simultaneous
     * accesses book bandwidth in pop order), so restore must reproduce
     * the exact layout.
     */
    template <class Ar> void io(Ar &ar);

  private:
    static constexpr Key kSlotMask = (Key{1} << kSlotBits) - 1;

    static Key
    pack(Cycles time, uint64_t seq, uint32_t warp)
    {
        if constexpr (kFifo) {
            if (((seq >> kSeqBits) | (warp >> kSlotBits)) != 0) [[unlikely]]
                unpackable(time, seq, warp);
            return (Key{time} << 64) | (Key{seq} << kSlotBits) | warp;
        } else {
            if (((time >> kTimeBits) | seq | (warp >> kSlotBits)) != 0)
                [[unlikely]]
                unpackable(time, seq, warp);
            return (time << kSlotBits) | warp;
        }
    }

    static Cycles
    timeOf(Key e)
    {
        return static_cast<Cycles>(e >> (kFifo ? 64 : kSlotBits));
    }

    static uint64_t
    seqOf(Key e)
    {
        constexpr uint64_t kSeqMask = (uint64_t{1} << kSeqBits) - 1;
        return kFifo ? static_cast<uint64_t>(e >> kSlotBits) & kSeqMask : 0;
    }

    static uint32_t
    slotOf(Key e)
    {
        return static_cast<uint32_t>(e & kSlotMask);
    }

    [[noreturn, gnu::cold, gnu::noinline]] static void
    unpackable(Cycles time, uint64_t seq, uint32_t warp)
    {
        throw SimError(SimError::Kind::Usage,
                       detail::format("event queue: time ", time, ", seq ",
                                      seq, " or warp ", warp,
                                      " does not fit a packed heap entry"));
    }

    /**
     * libstdc++'s __push_heap: move the hole at 1-based index @p hole
     * up past every parent with a LATER key, then fill it with @p e.
     */
    void
    siftUp(size_t hole, Key e)
    {
        const Key k = e >> kSlotBits;
        while (hole > 1) {
            const size_t parent = hole / 2;
            if ((heap_[parent] >> kSlotBits) <= k)
                break;
            heap_[hole] = heap_[parent];
            hole = parent;
        }
        heap_[hole] = e;
    }

    /**
     * libstdc++'s __adjust_heap from the root, with @p e the former last
     * entry: the hole walks down to a leaf through the earlier child
     * (the right one on a tie), then @p e sifts up from there.
     */
    void
    siftDown(Key e)
    {
        Key *const h = heap_.data();
        const size_t n = size_;
        size_t hole = 1;
        while (2 * hole + 1 <= n) {
            if (4 * hole <= n)
                __builtin_prefetch(h + 4 * hole);
            // The right child unless the left is strictly earlier,
            // selected without a branch (the outcome is a coin flip).
            size_t child = 2 * hole + 1;
            child -= (h[child] >> kSlotBits) > (h[child - 1] >> kSlotBits);
            h[hole] = h[child];
            hole = child;
        }
        if (2 * hole == n) {
            h[hole] = h[n];
            hole = n;
        }
        siftUp(hole, e);
    }

    size_t size_ = 0;
    uint64_t seq_ = 0; ///< pushes so far (16-byte entries only)
    /** Packed entries at [1, size_]. */
    std::vector<Key, HostLineAllocator<Key>> heap_;
};

} // namespace ladm

#endif // LADM_SIM_EVENT_QUEUE_HH
