/**
 * @file
 * EventQueue: the kernel engine's pending-warp-event scheduler.
 *
 * Two implementations behind one interface:
 *
 *  - Heap: a flat binary min-heap driven by std::push_heap /
 *    std::pop_heap with a time-only comparator -- operation-for-operation
 *    the std::priority_queue the engine historically used, so the pop
 *    order (including the order of EQUAL-time events, which falls out of
 *    the heap structure) is bit-compatible with every recorded result.
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
    }

    Mode mode() const { return mode_; }
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    void
    push(Cycles time, uint32_t warp)
    {
        ++size_;
        if (mode_ == Mode::Heap) {
            heap_.push_back(WarpEvent{time, warp});
            std::push_heap(heap_.begin(), heap_.end(),
                           std::greater<WarpEvent>());
            return;
        }
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
            std::pop_heap(heap_.begin(), heap_.end(),
                          std::greater<WarpEvent>());
            const WarpEvent ev = heap_.back();
            heap_.pop_back();
            return ev;
        }
        return popCalendar();
    }

    /**
     * Checkpoint the queue's raw arrays (snapshot/component_state.cc).
     * The heap vector and calendar buckets are serialized as-is, never
     * rebuilt by re-pushing: the structural order of EQUAL-time events
     * is behavior-relevant (simultaneous accesses book bandwidth in pop
     * order), so restore must reproduce the exact internal layout.
     */
    template <class Ar> void io(Ar &ar);

  private:
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

    // Heap mode.
    std::vector<WarpEvent> heap_;

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
