/**
 * @file
 * The sharded conservative-PDES kernel event loop.
 *
 * The serial engine (kernel_engine.cc) drains one machine-wide lane
 * (sim/engine_internal.hh) through a global min-heap. This loop instead
 * partitions the machine by NUMA node: each node gets its own lane --
 * event queue with FIFO tie order, warp pool, SM occupancy state --
 * plus a MemorySystem shard lane, and lanes are grouped onto worker
 * threads ("shards") by sched/shard_map.hh. Threads synchronize on
 * conservative time windows (classic PDES): no cross-node transfer
 * completes in less than the minimum cross-node link latency L, so
 * every lane may simulate [W, W+L) without seeing the others.
 * Cross-node memory work issued in a window is deferred
 * (MemorySystem::shardAccess) and executed in a canonical
 * shard-count-independent order at the window barrier
 * (MemorySystem::executeShardOps); the steps that waited on it resolve
 * right after, in the same window.
 *
 * Window loop, two barriers per window:
 *
 *   parallel P: each lane runs its events with time < W_end
 *               (node-exclusive state only -- lock-free)
 *   barrier A (serial): execute deferred cross-node ops, fold stats,
 *               tick the timeline
 *   parallel R: each lane resolves its deferred steps and schedules
 *               their successor events
 *   barrier B (serial): W_end' = max(W_end, min over lane heads) + L,
 *               or terminate when every lane is drained
 *
 * Timestamps stay honest throughout: a deferred op executes with its
 * original issue cycle, and a successor event scheduled below W_end
 * (possible, because a deferred step's completion may land early in
 * the window) simply runs in the NEXT window with its true timestamp.
 * Such "late" events give bandwidth servers a slightly different --
 * but equally valid -- simultaneity order than the serial engine, the
 * same class of divergence as the lanes' FIFO tie order; the
 * skew is bounded by one window. Results are therefore not bit-equal
 * to the serial heap reference, but they ARE bit-equal across shard
 * counts: every per-lane decision is lane-sequential and every
 * cross-lane decision is made in canonical node order, so grouping
 * lanes onto 2 or 4 threads cannot change any outcome. See
 * docs/performance.md.
 */

#include <algorithm>
#include <chrono>

#include "common/serial.hh"
#include "common/spin_barrier.hh"
#include "common/thread_pool.hh"
#include "obs/timeline.hh"
#include "sched/shard_map.hh"
#include "sim/engine_internal.hh"
#include "sim/event_queue.hh"
#include "sim/kernel_engine.hh"
#include "snapshot/snapshot.hh"

namespace ladm
{

namespace
{

using engine_detail::kNoEvent;

/** A step that issued deferred ops and waits for them at the barrier. */
struct Waiter
{
    uint32_t warp;
    Cycles time;    ///< issue cycle of the step
    Cycles done;    ///< max completion of its inline (non-deferred) part
    uint32_t opOff; ///< first index into PdesLane::waiterOps
    uint32_t opCnt;
};

/**
 * One NUMA node's lane plus its window-local memory state. Between
 * barriers, exactly one shard thread touches a lane; the barriers'
 * acquire/release ordering covers every cross-phase read (see
 * common/spin_barrier.hh).
 */
struct PdesLane : engine_detail::Lane<engine_detail::PdesQueue>
{
    using Lane::Lane;
    MemorySystem::ShardLane mlane;
    std::vector<Waiter> waiters;
    std::vector<uint32_t> waiterOps;
};

} // namespace

KernelRunStats
KernelEngine::runSharded(const LaunchDims &dims, TraceSource &trace,
                         const std::vector<TraceSource *> &shard_traces,
                         const std::vector<std::vector<TbId>> &node_queues,
                         Cycles start, bool resume)
{
    const int num_nodes = cfg_.numNodes();
    const int num_shards = maxShards_;
    const ShardMap map = buildShardMap(cfg_, num_shards);
    Launch launch = makeLaunch(dims, node_queues);

    // FIFO among equal times (16-byte queue entries) keeps the order
    // reproducible under the re-held insertion below.
    std::vector<PdesLane> lanes;
    lanes.reserve(static_cast<size_t>(num_nodes));
    std::vector<PdesLane::Lane *> lane_ptrs;
    for (NodeId n = 0; n < num_nodes; ++n) {
        const auto lo = static_cast<SmId>(
            std::find(smNode_.begin(), smNode_.end(), n) - smNode_.begin());
        const auto count = static_cast<int>(
            std::count(smNode_.begin(), smNode_.end(), n));
        lanes.emplace_back(n, 1, lo, count, cfg_.warpSlotsPerSm);
        lane_ptrs.push_back(&lanes.back());
    }

    // Phase P: run one lane up to (exclusive) the window end. Accesses
    // that cross a node boundary park the step as a waiter.
    auto processWindow = [&](PdesLane &ln, TraceSource &tr, Cycles wend) {
        ln.drain(launch, tr, wend,
                 engine_detail::stepOnly([&](const WarpEvent &ev,
                                             SmId sm) {
                     Cycles done = ev.time;
                     const auto op_off =
                         static_cast<uint32_t>(ln.waiterOps.size());
                     for (const MemAccess &a : ln.buf) {
                         const MemorySystem::ShardAccess r =
                             mem_.shardAccess(ln.mlane, ev.time, sm,
                                              a.addr, a.write);
                         if (r.deferred())
                             ln.waiterOps.push_back(r.op);
                         else
                             done = std::max(done, r.done);
                     }
                     const auto op_cnt =
                         static_cast<uint32_t>(ln.waiterOps.size()) -
                         op_off;
                     if (op_cnt == 0)
                         ln.completeStep(launch, ev.warp, ev.time, done);
                     else
                         ln.waiters.push_back(
                             {ev.warp, ev.time, done, op_off, op_cnt});
                 }));
    };

    // Phase R: finish this window's deferred steps, then re-normalize
    // the held slot (a resolved step's successor may undercut it).
    auto resolve = [&](PdesLane &ln, Cycles wend) {
        for (const Waiter &wt : ln.waiters) {
            Cycles done = wt.done;
            for (uint32_t i = 0; i < wt.opCnt; ++i) {
                const uint32_t op = ln.waiterOps[wt.opOff + i];
                done = std::max(done, ln.mlane.ops[op].done);
            }
            if (ln.completeStep(launch, wt.warp, wt.time, done) < wend)
                ++ln.lateEvents;
        }
        ln.waiters.clear();
        ln.waiterOps.clear();
        ln.mlane.clearWindow();
        if (ln.hasHeld) {
            ln.pq.push(ln.held.time, ln.held.warp);
            ln.hasHeld = false;
        }
        ln.hold();
    };

    // Shared window state: written only inside barrier serial sections,
    // read by every shard after the release -- the barrier's ordering
    // makes these plain fields race-free.
    Cycles window_end = 0;
    bool run_windows = false;

    // Checkpoint image, written only inside the window-advance barrier's
    // serial section (serial_b): every lane is quiescent there --
    // resolve() cleared the waiters and the shard lane's deferred-op
    // outbox, and re-normalized the held slot -- so per-lane state is
    // closed. window_end is serialized post-advance: the restored run's
    // next window must batch deferred ops exactly as the uninterrupted
    // run's would.
    auto save = [&](serial::Writer &w) {
        loopIo(w, true, window_end, launch, lane_ptrs);
    };

    if (resume) {
        window_end = resumeLoop(true, launch, lane_ptrs);
        // Mid-kernel checkpoints are only taken while events remain.
        run_windows = true;
    } else {
        // Serial setup: initial admission and the first window bound.
        Cycles min_head = kNoEvent;
        for (PdesLane &ln : lanes) {
            ln.admitAll(launch, start);
            ln.hold();
            min_head = std::min(min_head, ln.headTime());
        }
        if (min_head != kNoEvent) {
            window_end = min_head + lookahead_;
            run_windows = true;
        }
    }
    // serial_a re-derives the totals as base + lane sums.
    const LaneBase base = laneBase(lane_ptrs);

    bool interrupted = false;
    Cycles interrupted_at = 0;

    if (run_windows) {
        bool finished = false;
        std::vector<MemorySystem::ShardOp *> all_ops;

        SpinBarrier bar_a(static_cast<uint32_t>(num_shards));
        SpinBarrier bar_b(static_cast<uint32_t>(num_shards));

        auto serial_a = [&] {
            all_ops.clear();
            for (PdesLane &ln : lanes)
                for (auto &op : ln.mlane.ops)
                    all_ops.push_back(&op);
            mem_.executeShardOps(all_ops);
            pdesDeferredOps_ += all_ops.size();
            ++pdesWindows_;
            uint64_t ws = 0, sa = 0;
            for (const PdesLane &ln : lanes) {
                ws += ln.warpSteps;
                sa += ln.sectorAccesses;
            }
            warpStepsTotal_ = base.warpSteps + ws;
            sectorAccessesTotal_ = base.sectorAccesses + sa;
            if (timeline_)
                timeline_->maybeTick(window_end);
        };

        auto serial_b = [&] {
            // Checkpoint timestamp: the boundary the lanes just drained
            // to. The serialized image still carries the *advanced*
            // window_end computed below, so the restored run partitions
            // deferred ops into the same windows as this one would.
            const Cycles boundary = window_end;
            Cycles head = kNoEvent;
            uint64_t late = 0;
            for (const PdesLane &ln : lanes) {
                head = std::min(head, ln.headTime());
                late += ln.lateEvents;
            }
            pdesLateEvents_ = base.lateEvents + late;
            if (head == kNoEvent)
                finished = true;
            else
                window_end = std::max(window_end, head) + lookahead_;
            if (ckpt_ && !finished && ckpt_->pending(boundary)) {
                if (ckpt_->capture(boundary, save)) {
                    // Stop requested: end the window loop on every
                    // shard; the unwinding throw happens on the caller
                    // thread after the pool drains (workers must not
                    // throw).
                    interrupted = true;
                    interrupted_at = boundary;
                    finished = true;
                }
            }
        };

        auto shardLoop = [&](int s) {
            TraceSource &tr =
                s == 0 ? trace
                       : *shard_traces[static_cast<size_t>(s - 1)];
            const auto &my_nodes =
                map.nodesOfShard[static_cast<size_t>(s)];
            uint64_t wait_ns = 0;
            using clock = std::chrono::steady_clock;
            for (;;) {
                const Cycles wend = window_end;
                for (const NodeId n : my_nodes)
                    processWindow(lanes[static_cast<size_t>(n)], tr,
                                  wend);
                const auto t0 = clock::now();
                bar_a.arriveAndWait(serial_a);
                const auto t1 = clock::now();
                for (const NodeId n : my_nodes)
                    resolve(lanes[static_cast<size_t>(n)], wend);
                const auto t2 = clock::now();
                bar_b.arriveAndWait(serial_b);
                const auto t3 = clock::now();
                wait_ns += static_cast<uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        (t1 - t0) + (t3 - t2))
                        .count());
                if (finished)
                    break;
            }
            pdesBarrierNs_[static_cast<size_t>(s)] += wait_ns;
        };

        // Workers must not throw (ThreadPool contract) and cannot: all
        // input validation ran in run() before dispatch, and the loop
        // body allocates only through vectors sized by the workload.
        ThreadPool pool(num_shards - 1);
        for (int s = 1; s < num_shards; ++s)
            pool.submit([&shardLoop, s] { shardLoop(s); });
        shardLoop(0);
        pool.wait();
    }

    if (interrupted)
        throw snapshot::Interrupted(ckpt_->outPath(), interrupted_at);

    return finishRun(dims, trace, start, lane_ptrs, base);
}

} // namespace ladm
