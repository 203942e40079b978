/**
 * @file
 * The event-loop lane shared by the kernel engine's two loops: the
 * serial reference (sim/kernel_engine.cc) runs one machine-wide lane,
 * drained with an unbounded window and inline memory access; the
 * sharded conservative-PDES loop (sim/sharded_engine.cc) runs one lane
 * per NUMA node in time windows. Both dispatch, retire and pace warps
 * through the same Lane code; they differ only in the queue's entry
 * width, i.e. its tie order (sim/event_queue.hh). Internal to the
 * engine -- nothing outside sim/ should include this.
 */

#ifndef LADM_SIM_ENGINE_INTERNAL_HH
#define LADM_SIM_ENGINE_INTERNAL_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "sim/event_queue.hh"
#include "sim/trace_source.hh"

namespace ladm
{

namespace engine_detail
{

constexpr Cycles kNoEvent = std::numeric_limits<Cycles>::max();

struct WarpState
{
    TbId tb = 0;
    int warpInTb = 0;
    SmId sm = 0;
    int64_t step = 0;
    /** Completion times of the last in-flight steps (pipeline window). */
    std::array<Cycles, 4> doneRing{};
};

struct SmState
{
    int residentTbs = 0;
    int freeWarpSlots = 0;
};

/**
 * One launch's inputs, read by every lane, plus the per-TB warp
 * countdown. A TB runs on one node and so in one lane: lanes on
 * different threads never touch the same countdown entry.
 */
struct Launch
{
    const std::vector<std::vector<TbId>> &queues; ///< per-node TB order
    const std::vector<NodeId> &smNode;
    int warpsPerTb = 0;
    int maxResidentTbs = 0;
    int depth = 1;   ///< warp pipeline depth, clamped to [1, 4]
    Cycles gap = 0;  ///< compute gap between dependent steps
    std::vector<int> tbWarpsLeft;
    /** TB dispatch cycles, sized only while tracing (serial-only). */
    std::vector<Cycles> tbStart;
};

/**
 * Per-event extension points of Lane::drain(): the serial loop's
 * checkpoint safe point (beforePop), timeline and watchdog (afterPop),
 * trace span (tbRetired), and how a step issues its memory accesses
 * (step). stepOnly() leaves the first three empty.
 */
template <class BeforePop, class AfterPop, class TbRetired, class Step>
struct LoopHooks
{
    BeforePop beforePop;
    AfterPop afterPop;
    TbRetired tbRetired;
    Step step;
};

struct NoHook
{
    template <class... Args>
    void
    operator()(Args &&...) const
    {
    }
};

template <class Step>
LoopHooks<NoHook, NoHook, NoHook, Step>
stepOnly(Step step)
{
    return {{}, {}, {}, std::move(step)};
}

/** The serial lane's queue: 8-byte entries, priority_queue tie order. */
using SerialQueue = EventQueue<uint64_t>;
/** The sharded lanes' queue: 16-byte entries, FIFO tie order. */
using PdesQueue = EventQueue<uint128_t>;

/**
 * A slice of the machine with its own event queue: a contiguous range
 * of nodes and their SMs, with the warps running on them. Between
 * barriers exactly one thread touches a lane.
 */
template <class Queue>
struct alignas(64) Lane
{
    NodeId nodeLo = 0;
    SmId smLo = 0;
    std::vector<size_t> cursor; ///< dispatch position, per node - nodeLo

    Queue pq;
    /** One-slot lookahead buffer (EventQueue has no peek). */
    bool hasHeld = false;
    WarpEvent held{0, 0};

    std::vector<WarpState> warps;
    std::vector<uint32_t> freeWarps;
    std::vector<SmState> sms; ///< indexed by sm - smLo
    std::vector<MemAccess> buf;

    // Run stats, folded into KernelRunStats at kernel end.
    uint64_t warpSteps = 0;
    uint64_t sectorAccesses = 0;
    Cycles totalStepLatency = 0;
    Cycles maxStepLatency = 0;
    Cycles endCycle = 0;
    uint64_t lateEvents = 0; ///< sharded: successors that landed in-window
    /** Same geometry as the registry's engine.step_latency. */
    Histogram hist{8, 32};

    /** Nodes [node_lo, node_lo + nodes) and their SMs [sm_lo, +sms). */
    Lane(NodeId node_lo, int nodes, SmId sm_lo, int num_sms,
         int warp_slots)
        : nodeLo(node_lo), smLo(sm_lo),
          cursor(static_cast<size_t>(nodes), 0),
          sms(static_cast<size_t>(num_sms), SmState{0, warp_slots})
    {
    }

    Cycles headTime() const { return hasHeld ? held.time : kNoEvent; }

    /** Refill the empty held slot from the queue, if it has an event. */
    void
    hold()
    {
        if (!pq.empty()) {
            held = pq.pop();
            hasHeld = true;
        }
    }

    /** Dispatch TBs from @p sm's node queue while the SM has room. */
    void
    admit(Launch &l, SmId sm, Cycles now)
    {
        const NodeId node = l.smNode[sm];
        const auto &q = l.queues[node];
        size_t &cur = cursor[static_cast<size_t>(node - nodeLo)];
        SmState &st = sms[static_cast<size_t>(sm - smLo)];
        while (st.residentTbs < l.maxResidentTbs &&
               st.freeWarpSlots >= l.warpsPerTb && cur < q.size()) {
            const TbId tb = q[cur++];
            if (!l.tbStart.empty())
                l.tbStart[tb] = now;
            ++st.residentTbs;
            st.freeWarpSlots -= l.warpsPerTb;
            l.tbWarpsLeft[tb] = l.warpsPerTb;
            for (int w = 0; w < l.warpsPerTb; ++w) {
                uint32_t slot;
                if (!freeWarps.empty()) {
                    slot = freeWarps.back();
                    freeWarps.pop_back();
                } else {
                    slot = static_cast<uint32_t>(warps.size());
                    warps.emplace_back();
                }
                warps[slot] = WarpState{tb, w, sm, 0, {}};
                pq.push(now, slot);
            }
        }
    }

    /** Admit on every SM of the lane at the launch cycle. */
    void
    admitAll(Launch &l, Cycles start)
    {
        for (size_t i = 0; i < sms.size(); ++i)
            admit(l, smLo + static_cast<SmId>(i), start);
    }

    /**
     * Warp @p slot's trace ran out at @p now. Pipelined steps may still
     * be outstanding, so the warp is done only when the newest
     * completion lands; its TB's last warp frees the TB's residency and
     * pulls new work at that cycle.
     */
    template <class TbRetired>
    void
    retire(Launch &l, uint32_t slot, Cycles now, TbRetired &&tb_retired)
    {
        const WarpState &w = warps[slot];
        Cycles fin = now;
        for (const Cycles d : w.doneRing)
            fin = std::max(fin, d);
        SmState &st = sms[static_cast<size_t>(w.sm - smLo)];
        ++st.freeWarpSlots;
        freeWarps.push_back(slot);
        if (--l.tbWarpsLeft[w.tb] == 0) {
            --st.residentTbs;
            const SmId sm = w.sm;
            tb_retired(w.tb, sm, fin);
            admit(l, sm, fin); // may reuse the slot: w is dead now
        }
        endCycle = std::max(endCycle, fin);
    }

    /**
     * The scoreboard: a warp may run `depth` loop iterations ahead of
     * the oldest outstanding one, so the next step issues once the step
     * `depth` iterations back has completed, but no earlier than the
     * compute gap after this issue. Returns the successor's cycle.
     */
    Cycles
    completeStep(const Launch &l, uint32_t slot, Cycles ev_time,
                 Cycles done)
    {
        WarpState &w = warps[slot];
        const Cycles lat = done - ev_time;
        totalStepLatency += lat;
        maxStepLatency = std::max(maxStepLatency, lat);
        hist.sample(lat);
        w.doneRing[static_cast<size_t>(w.step % l.depth)] = done;
        const Cycles dep =
            w.doneRing[static_cast<size_t>((w.step + 1) % l.depth)];
        ++w.step;
        const Cycles next = std::max(ev_time + l.gap, dep + l.gap);
        pq.push(next, slot);
        return next;
    }

    /**
     * Run every event with time < @p wend, in queue order. A step's
     * accesses land in buf; hooks.step(ev, sm) issues them and completes
     * (or parks) the step.
     */
    template <class Hooks>
    void
    drain(Launch &l, TraceSource &tr, Cycles wend, Hooks &&hooks)
    {
        for (;;) {
            if (!hasHeld) {
                if (pq.empty())
                    break;
                hooks.beforePop();
                held = pq.pop();
                hasHeld = true;
                // This step's trace and memory work hides the miss on
                // the next warp's state (the heap can name it cheaply).
                if (!pq.empty())
                    __builtin_prefetch(&warps[pq.nextWarp()]);
            }
            if (held.time >= wend)
                break;
            const WarpEvent ev = held;
            hasHeld = false;
            hooks.afterPop(ev);
            const WarpState &w = warps[ev.warp];
            buf.clear();
            if (!tr.warpStep(w.tb, w.warpInTb, w.step, buf)) {
                retire(l, ev.warp, ev.time, hooks.tbRetired);
                continue;
            }
            ++warpSteps;
            sectorAccesses += buf.size();
            hooks.step(ev, w.sm);
        }
    }

    /** Checkpoint image of the lane (queue layout included: equal-time
     *  pop order is behavior-relevant). Defined in kernel_engine.cc. */
    template <class Ar> void io(Ar &ar);
};

} // namespace engine_detail
} // namespace ladm

#endif // LADM_SIM_ENGINE_INTERNAL_HH
