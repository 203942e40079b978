/**
 * @file
 * EventQueue: the kernel engine's pending-warp-event scheduler.
 *
 * Two implementations behind one interface:
 *
 *  - Heap: a flat binary min-heap of packed 8-byte entries
 *    (time << 24 | warp slot), compared on the time bits only. Push and
 *    pop perform libstdc++'s std::push_heap / std::pop_heap step for
 *    step -- the std::priority_queue the engine historically used -- so
 *    the pop order (including the order of EQUAL-time events, which
 *    falls out of the heap structure) is bit-compatible with every
 *    recorded result. The array is 1-based on 64-byte host lines: a
 *    node's two children share a 16-byte pair and its four
 *    grandchildren one aligned 32-byte group, which the sift-down
 *    prefetches a level ahead.
 *
 *  - Calendar: a classic calendar queue [Brown 1988] bucketed by the
 *    compute gap. An event lands in bucket (time / width) mod numBuckets;
 *    pop takes the minimum (time, seq) from the cursor's bucket and the
 *    cursor walks bucket-to-bucket as simulated time advances. Events
 *    beyond one calendar year (numBuckets x width cycles ahead) ride in a
 *    sparse-timestamp fallback heap and migrate into buckets when their
 *    year arrives. Push and pop are O(1) amortized while timestamps stay
 *    dense, which warp wake-ups are (the next event of a warp is within a
 *    few compute gaps or one memory latency).
 *
 * Within the calendar, equal-time events pop in insertion (FIFO) order.
 * That is a DIFFERENT tie order than the binary heap's, and tie order is
 * behavior-relevant: simultaneous accesses book bandwidth servers in pop
 * order, so per-warp delays -- and therefore whole-run metrics -- shift
 * with it (measured on fig09: several workloads move by a few percent
 * under a different tie-break). The serial engine lane always uses the
 * heap, so results stay bit-reproducible against the repo's recorded
 * baselines; the sharded engine's per-node lanes always use the
 * calendar, whose FIFO tie order is part of their own determinism
 * contract. See docs/performance.md.
 */

#ifndef LADM_SIM_EVENT_QUEUE_HH
#define LADM_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/host_line.hh"
#include "common/sim_error.hh"
#include "common/types.hh"

namespace ladm
{

/** One pending wake-up: warp slot @p warp acts at cycle @p time. */
struct WarpEvent
{
    Cycles time;
    uint32_t warp;

    bool operator>(const WarpEvent &o) const { return time > o.time; }
    template <class Ar> void io(Ar &ar);
};

class EventQueue
{
  public:
    enum class Mode
    {
        Heap,     ///< binary heap, priority_queue-compatible tie order
        Calendar, ///< calendar queue, FIFO tie order
    };

    /**
     * @param mode         scheduling structure (see file comment)
     * @param bucket_width calendar bucket span in cycles; the natural
     *                     choice is the engine's compute gap. Ignored in
     *                     Heap mode.
     */
    explicit EventQueue(Mode mode = Mode::Heap, Cycles bucket_width = 4)
        : mode_(mode), width_(std::max<Cycles>(bucket_width, 1))
    {
        if (mode_ == Mode::Calendar) {
            buckets_.resize(kNumBuckets);
            yearSpan_ = static_cast<Cycles>(kNumBuckets) * width_;
        }
        heap_.reserve(1024);
        heap_.push_back(0); // slot 0 unused: the heap is 1-based
    }

    /** A heap entry packs a time below 2^40 over a slot below 2^24. */
    static constexpr int kSlotBits = 24;
    static constexpr int kTimeBits = 40;

    Mode mode() const { return mode_; }
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    /**
     * @throws SimError in Heap mode when @p time needs more than 40 bits
     *         or @p warp more than 24.
     */
    void
    push(Cycles time, uint32_t warp)
    {
        if (mode_ == Mode::Heap) {
            const uint64_t e = pack(time, warp);
            ++size_;
            heap_.push_back(e);
            siftUp(size_, e);
            return;
        }
        ++size_;
        pushCalendar(Entry{time, seq_++, warp});
    }

    /**
     * Remove and return the earliest event (FIFO among equal times in
     * Calendar mode). Must not be called on an empty queue.
     */
    WarpEvent
    pop()
    {
        --size_;
        if (mode_ == Mode::Heap) {
            const uint64_t top = heap_[1];
            const uint64_t last = heap_.back();
            heap_.pop_back();
            if (size_ > 0)
                siftDown(last);
            return unpack(top);
        }
        return popCalendar();
    }

    /**
     * Heap mode, non-empty: the warp slot of the event pop() returns
     * next, for prefetching its state ahead of time.
     */
    uint32_t
    nextWarp() const
    {
        return static_cast<uint32_t>(heap_[1] & kSlotMask);
    }

    /**
     * Checkpoint the queue's arrays (snapshot/component_state.cc): the
     * heap as (time, warp) pairs in array order, the calendar buckets
     * as-is. Neither is rebuilt by re-pushing: the structural order of
     * EQUAL-time events is behavior-relevant (simultaneous accesses
     * book bandwidth in pop order), so restore must reproduce the exact
     * internal layout.
     */
    template <class Ar> void io(Ar &ar);

  private:
    static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;

    static uint64_t
    pack(Cycles time, uint32_t warp)
    {
        if (((time >> kTimeBits) | (warp >> kSlotBits)) != 0) [[unlikely]]
            unpackable(time, warp);
        return (time << kSlotBits) | warp;
    }

    static WarpEvent
    unpack(uint64_t e)
    {
        return WarpEvent{e >> kSlotBits, static_cast<uint32_t>(e & kSlotMask)};
    }

    [[noreturn, gnu::cold, gnu::noinline]] static void
    unpackable(Cycles time, uint32_t warp)
    {
        throw SimError(SimError::Kind::Usage,
                       detail::format("event queue: time ", time, " or warp ",
                                      warp,
                                      " does not fit a packed heap entry"));
    }

    /**
     * libstdc++'s __push_heap: move the hole at 1-based index @p hole
     * up past every parent with a LATER time, then fill it with @p e.
     */
    void
    siftUp(size_t hole, uint64_t e)
    {
        const uint64_t t = e >> kSlotBits;
        while (hole > 1) {
            const size_t parent = hole / 2;
            if ((heap_[parent] >> kSlotBits) <= t)
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
    siftDown(uint64_t e)
    {
        uint64_t *const h = heap_.data();
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

    struct Entry
    {
        Cycles time;
        uint64_t seq; ///< insertion order: FIFO among equal times
        uint32_t warp;

        bool
        operator>(const Entry &o) const
        {
            return time != o.time ? time > o.time : seq > o.seq;
        }
        template <class Ar> void io(Ar &ar);
    };

    /**
     * Power of two. 1024 buckets x the 4-cycle default gap = a 4096-cycle
     * year: far wider than one memory round trip, so in steady state
     * nearly every push files directly into a bucket and each bucket
     * holds only the few events of one gap-wide time slice.
     */
    static constexpr size_t kNumBuckets = 1024;

    size_t
    bucketOf(Cycles time) const
    {
        return static_cast<size_t>(time / width_) & (kNumBuckets - 1);
    }

    void
    pushCalendar(const Entry &e)
    {
        if (e.time >= yearStart_ + yearSpan_) {
            // Sparse timestamp: beyond the calendar horizon. Heap
            // fallback; migrates into a bucket when its year starts.
            overflow_.push_back(e);
            std::push_heap(overflow_.begin(), overflow_.end(),
                           std::greater<Entry>());
            return;
        }
        // An event at or before the cursor's slice (possible only for
        // callers scheduling into the past) files under the cursor so it
        // still pops next; takeMin() orders within the bucket.
        const Cycles cursor_start =
            yearStart_ + static_cast<Cycles>(cursor_) * width_;
        const size_t idx =
            e.time < cursor_start ? cursor_ : bucketOf(e.time);
        buckets_[idx].push_back(e);
        ++inYear_;
    }

    /** Remove and return the minimum (time, seq) entry of @p bucket. */
    Entry
    takeMin(std::vector<Entry> &bucket)
    {
        size_t best = 0;
        for (size_t i = 1; i < bucket.size(); ++i) {
            if (bucket[best] > bucket[i])
                best = i;
        }
        const Entry e = bucket[best];
        bucket[best] = bucket.back();
        bucket.pop_back();
        return e;
    }

    WarpEvent
    popCalendar()
    {
        for (;;) {
            while (inYear_ > 0) {
                std::vector<Entry> &b = buckets_[cursor_];
                if (!b.empty()) {
                    const Entry e = takeMin(b);
                    --inYear_;
                    return WarpEvent{e.time, e.warp};
                }
                if (++cursor_ == kNumBuckets) {
                    cursor_ = 0;
                    yearStart_ += yearSpan_;
                    migrateOverflow();
                }
            }
            // Every bucket is empty: simulated time jumps straight to
            // the overflow's year (the caller guarantees non-empty).
            const Cycles t = overflow_.front().time;
            yearStart_ = (t / yearSpan_) * yearSpan_;
            cursor_ = bucketOf(t);
            migrateOverflow();
        }
    }

    void
    migrateOverflow()
    {
        while (!overflow_.empty() &&
               overflow_.front().time < yearStart_ + yearSpan_) {
            std::pop_heap(overflow_.begin(), overflow_.end(),
                          std::greater<Entry>());
            const Entry e = overflow_.back();
            overflow_.pop_back();
            buckets_[bucketOf(e.time)].push_back(e);
            ++inYear_;
        }
    }

    Mode mode_;
    Cycles width_;
    size_t size_ = 0;

    // Heap mode: packed entries at [1, size_].
    std::vector<uint64_t, HostLineAllocator<uint64_t>> heap_;

    // Calendar mode.
    std::vector<std::vector<Entry>> buckets_;
    size_t cursor_ = 0;
    Cycles yearStart_ = 0;
    Cycles yearSpan_ = 0;
    size_t inYear_ = 0; ///< entries currently filed in buckets
    std::vector<Entry> overflow_; ///< min-heap of beyond-horizon entries
    uint64_t seq_ = 0;
};

} // namespace ladm

#endif // LADM_SIM_EVENT_QUEUE_HH
