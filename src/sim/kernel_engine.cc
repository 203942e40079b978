#include "sim/kernel_engine.hh"

#include <algorithm>

#include "check/invariants.hh"
#include "common/bitutils.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "common/sim_error.hh"
#include "obs/timeline.hh"
#include "sim/engine_internal.hh"
#include "sim/event_queue.hh"
#include "snapshot/snapshot.hh"
#include "telemetry/stat_registry.hh"

namespace ladm
{

using engine_detail::Lane;
using engine_detail::Launch;
using engine_detail::PdesQueue;
using engine_detail::SerialQueue;
using engine_detail::SmState;
using engine_detail::WarpState;

const char *
toString(KernelEngine::PdesFallback fb)
{
    switch (fb) {
    case KernelEngine::PdesFallback::None:
        return "none";
    case KernelEngine::PdesFallback::CheckSuite:
        return "invariant check suite (LADM_CHECK) is serial-only";
    case KernelEngine::PdesFallback::MemoryIncompatible:
        return "memory feature incompatible with sharding";
    case KernelEngine::PdesFallback::MissingShardTraces:
        return "fewer per-shard trace instances than shards";
    case KernelEngine::PdesFallback::ZeroLookahead:
        return "zero cross-node latency leaves no conservative window";
    }
    return "unknown";
}

void
KernelEngine::noteFallback(PdesFallback fb, const char *detail)
{
    fallback_ = fb;
    fallbackDetail_ = detail ? detail : toString(fb);
    const unsigned bit = 1u << static_cast<int>(fb);
    if (fallbackWarned_ & bit)
        return;
    fallbackWarned_ |= bit;
    ladm_warn("engine: ", cfg_.resolvedShards(),
              " PDES shards requested but this run uses the serial "
              "loop: ",
              fallbackDetail_,
              " [engine.pdes.fallback_reason=",
              static_cast<int>(fb), "]");
}

KernelEngine::KernelEngine(const SystemConfig &cfg, MemorySystem &mem)
    : cfg_(cfg), mem_(mem)
{
    smNode_.resize(cfg_.totalSms());
    for (SmId s = 0; s < cfg_.totalSms(); ++s)
        smNode_[s] = cfg_.nodeOfSm(s);
    maxShards_ = cfg_.resolvedShards();
    lookahead_ = mem_.network().minRouteLatency();
    if (lookahead_ == 0 && maxShards_ > 1) {
        // No cross-node latency = no conservative window.
        maxShards_ = 1;
        noteFallback(PdesFallback::ZeroLookahead, nullptr);
    }
    pdesBarrierNs_.assign(static_cast<size_t>(maxShards_), 0);
}

void
KernelEngine::registerStats(telemetry::StatRegistry &reg)
{
    auto counter = [&reg](const std::string &path, const uint64_t &v) {
        reg.gauge(path, [&v] { return static_cast<double>(v); },
                  StatKind::Counter);
    };
    counter("engine.kernels", kernelsRun_);
    counter("engine.warp_steps", warpStepsTotal_);
    counter("engine.sector_accesses", sectorAccessesTotal_);
    counter("engine.tbs_dispatched", tbsDispatchedTotal_);
    // Bucket width 8 cycles x 32 buckets spans [0, 256); slower steps
    // (remote fetches, DRAM queueing) land in the overflow bucket.
    stepLatencyHist_ =
        &reg.group("engine").histogram("step_latency", 8, 32);

    // Fallback diagnostic: registered whenever sharding was *requested*
    // (even when the ctor already clamped it away), so a silently-serial
    // run is explainable from its stats dump.
    if (cfg_.resolvedShards() > 1) {
        reg.gauge("engine.pdes.fallback_reason", [this] {
            return static_cast<double>(static_cast<int>(fallback_));
        });
    }

    // PDES shard counters exist only when the sharded loop can run, so
    // serial runs keep an unchanged stat namespace.
    if (maxShards_ > 1) {
        reg.gauge("engine.pdes.shards",
                  [this] { return static_cast<double>(maxShards_); });
        counter("engine.pdes.windows", pdesWindows_);
        counter("engine.pdes.deferred_ops", pdesDeferredOps_);
        counter("engine.pdes.late_events", pdesLateEvents_);
        // Indexed, not referenced: a restore may reallocate the vector.
        for (size_t s = 0; s < pdesBarrierNs_.size(); ++s) {
            reg.gauge("engine.pdes.shard" + std::to_string(s) +
                          ".barrier_wait_ns",
                      [this, s] {
                          return static_cast<double>(pdesBarrierNs_[s]);
                      },
                      StatKind::Counter);
        }
    }
}

KernelRunStats
KernelEngine::run(const LaunchDims &dims, TraceSource &trace,
                  const std::vector<std::vector<TbId>> &node_queues,
                  Cycles start,
                  const std::vector<TraceSource *> &shard_traces,
                  bool resume)
{
    const int num_nodes = cfg_.numNodes();
    if (static_cast<int>(node_queues.size()) != num_nodes) {
        throw InvariantViolation(
            "scheduler produced " + std::to_string(node_queues.size()) +
            " node queues for " + std::to_string(num_nodes) + " nodes");
    }

    const int warps_per_tb =
        static_cast<int>(ceilDiv(dims.threadsPerTb(), cfg_.warpSize));
    ladm_require(warps_per_tb <= cfg_.warpSlotsPerSm,
                 "threadblock needs ", warps_per_tb,
                 " warps but an SM has only ", cfg_.warpSlotsPerSm,
                 " slots");

    int64_t assigned = 0;
    for (const auto &q : node_queues)
        assigned += static_cast<int64_t>(q.size());
    if (assigned != dims.numTbs()) {
        throw InvariantViolation(
            "scheduler assigned " + std::to_string(assigned) +
            " TBs, launch has " + std::to_string(dims.numTbs()));
    }

    // TB-dispatch conservation (opt-in): every TB of the launch must
    // appear exactly once across the node queues -- a duplicate executes
    // twice and a hole hangs the launch's dependents.
    const bool check_on = check::enabled();
    if (check_on) {
        std::vector<uint8_t> seen(dims.numTbs(), 0);
        std::vector<Diagnostic> diags;
        for (const auto &q : node_queues) {
            for (const TbId tb : q) {
                if (tb < 0 || tb >= dims.numTbs()) {
                    diags.push_back({"scheduler.queue",
                                     "tb " + std::to_string(tb),
                                     "TB id outside [0, " +
                                         std::to_string(dims.numTbs()) +
                                         ")",
                                     "scheduler emitted a bogus id"});
                } else if (seen[tb]++) {
                    diags.push_back({"scheduler.queue",
                                     "tb " + std::to_string(tb),
                                     "TB scheduled more than once",
                                     "it would execute twice"});
                }
            }
        }
        if (diags.size() < 8) {
            for (TbId tb = 0; tb < dims.numTbs(); ++tb) {
                if (!seen[tb]) {
                    diags.push_back({"scheduler.queue",
                                     "tb " + std::to_string(tb),
                                     "TB never scheduled",
                                     "the launch would hang waiting for "
                                     "it"});
                    if (diags.size() >= 8)
                        break;
                }
            }
        }
        if (!diags.empty()) {
            throw InvariantViolation(
                "TB dispatch not a permutation of the launch",
                std::move(diags));
        }
    }

    // Sharded conservative-PDES loop -- only when configured for >1
    // shard AND this run needs none of the serial-only machinery: the
    // invariant suite (watchdog/drain bookkeeping is serial),
    // shard-incompatible memory features (see
    // MemorySystem::shardCompatible()), and a private trace instance per
    // extra shard (warpStep scratch buffers are per-object). Anything
    // short of that runs the bit-exact serial reference below.
    if (maxShards_ > 1) {
        if (check_on) {
            noteFallback(PdesFallback::CheckSuite, nullptr);
        } else if (!mem_.shardCompatible()) {
            noteFallback(PdesFallback::MemoryIncompatible,
                         mem_.shardIncompatibleReason());
        } else if (static_cast<int>(shard_traces.size()) + 1 <
                   maxShards_) {
            noteFallback(PdesFallback::MissingShardTraces, nullptr);
        } else {
            fallback_ = PdesFallback::None;
            fallbackDetail_.clear();
            return runSharded(dims, trace, shard_traces, node_queues,
                              start, resume);
        }
    }

    Launch launch = makeLaunch(dims, node_queues);
    Lane<SerialQueue> lane(0, num_nodes, 0, cfg_.totalSms(),
                           cfg_.warpSlotsPerSm);
    lane.trace = tr_;
    const std::vector<Lane<SerialQueue> *> lanes{&lane};

    /** Last processed event's cycle: the current safe-point time. */
    Cycles cur = start;
    // Checkpoints are taken at the top of the loop, before the pop: the
    // queue is consistent and no access is in flight.
    auto save = [&](serial::Writer &w) {
        loopIo(w, false, cur, launch, lanes);
    };
    if (resume)
        cur = resumeLoop(false, launch, lanes);
    else
        lane.admitAll(launch, start);
    const LaneBase base = laneBase(lanes);

    // No-progress watchdog (opt-in): a healthy kernel advances simulated
    // time within a bounded number of events (every warp's next wake-up
    // moves forward by at least the compute gap). A trace that never
    // retires combined with a zero gap spins here forever; the watchdog
    // turns that hang into a structured abort with the machine state.
    const uint64_t watchdog_limit = check_on ? check::watchdogLimit() : 0;
    Cycles watchdog_time = cur;
    uint64_t watchdog_stuck = 0;

    auto watchdog = [&](const WarpEvent &ev) {
        if (ev.time > watchdog_time) {
            watchdog_time = ev.time;
            watchdog_stuck = 0;
            return;
        }
        if (++watchdog_stuck <= watchdog_limit)
            return;
        size_t dispatched = 0, queued = 0;
        for (int n = 0; n < num_nodes; ++n) {
            dispatched += lane.cursor[static_cast<size_t>(n)];
            queued += node_queues[n].size();
        }
        if (ckpt_) {
            // Re-file the popped event so the dumped image is a
            // consistent safe point, then leave a replayable
            // post-mortem checkpoint beside the telemetry dump.
            lane.pq.push(ev.time, ev.warp);
            ckpt_->postMortem(cur, save);
        }
        throw InvariantViolation(
            "engine made no progress for " +
                std::to_string(watchdog_stuck) + " events (hung kernel?)",
            {{"engine.cycle", std::to_string(ev.time),
              "simulated time stopped advancing",
              "raise LADM_CHECK_WATCHDOG if the kernel is "
              "legitimately this dense"},
             {"engine.live_warps",
              std::to_string(lane.warps.size() - lane.freeWarps.size()),
              "warps still in flight at the stuck cycle",
              "check the trace source's retire condition"},
             {"engine.tbs_dispatched",
              std::to_string(dispatched) + " of " + std::to_string(queued),
              "threadblocks handed to SMs so far",
              "undispatched TBs are waiting on the stuck ones"}});
    };

    lane.drain(
        launch, trace, engine_detail::kNoEvent,
        engine_detail::LoopHooks{
            [&] {
                // One untaken null check when checkpointing is off.
                if (ckpt_ && ckpt_->pending(cur) &&
                    ckpt_->capture(cur, save))
                    throw snapshot::Interrupted(ckpt_->outPath(), cur);
            },
            [&](const WarpEvent &ev) {
                cur = ev.time;
                // Event times are globally monotone, so one compare per
                // event is enough to hit every window boundary.
                if (timeline_)
                    timeline_->maybeTick(ev.time);
                if (check_on)
                    watchdog(ev);
            },
            [&](const WarpEvent &ev, SmId sm) {
                const Cycles done = mem_.accessStep(
                    ev.time, sm, lane.buf.data(),
                    lane.buf.data() + lane.buf.size());
                // The cumulative gauges advance per step, not per
                // kernel, so a mid-kernel timeline window sees live
                // progress instead of a stale end-of-last-kernel total.
                sectorAccessesTotal_ += lane.buf.size();
                ++warpStepsTotal_;
                lane.completeStep(launch, ev.warp, ev.time, done);
            }});

    if (check_on) {
        // Dispatch conservation at drain: every queue fully consumed and
        // every TB's warps retired. A shortfall means admit() starved --
        // a resident-limit accounting bug, not a workload property.
        std::vector<Diagnostic> diags;
        for (int n = 0; n < num_nodes; ++n) {
            const size_t done = lane.cursor[static_cast<size_t>(n)];
            if (done != node_queues[n].size()) {
                diags.push_back(
                    {"node" + std::to_string(n) + ".queue",
                     std::to_string(done) + " of " +
                         std::to_string(node_queues[n].size()) +
                         " dispatched",
                     "TB queue not drained at kernel end",
                     "an SM stopped pulling work while TBs remained"});
            }
        }
        for (TbId tb = 0; tb < dims.numTbs() && diags.size() < 8; ++tb) {
            const int left = launch.tbWarpsLeft[tb];
            if (left != 0) {
                diags.push_back(
                    {"tb" + std::to_string(tb),
                     std::to_string(left) + " warps left",
                     "threadblock never fully retired",
                     "warp retirement accounting leaked"});
            }
        }
        if (!diags.empty()) {
            throw InvariantViolation(
                "kernel ended with undispatched or unretired "
                "threadblocks",
                std::move(diags));
        }
        mem_.checkDrained(std::max(start, lane.endCycle));
    }
    return finishRun(dims, trace, start, lanes, base);
}

Launch
KernelEngine::makeLaunch(const LaunchDims &dims,
                         const std::vector<std::vector<TbId>> &node_queues)
    const
{
    return {node_queues,
            smNode_,
            static_cast<int>(ceilDiv(dims.threadsPerTb(), cfg_.warpSize)),
            cfg_.maxResidentTbsPerSm,
            std::clamp(cfg_.warpPipelineDepth, 1, 4),
            cfg_.computeGapCycles,
            std::vector<int>(static_cast<size_t>(dims.numTbs()), 0),
            std::vector<Cycles>(tr_ ? static_cast<size_t>(dims.numTbs())
                                    : 0)};
}

template <class Lane>
KernelEngine::LaneBase
KernelEngine::laneBase(const std::vector<Lane *> &lanes) const
{
    // The cumulative totals already include each restored lane's
    // mid-kernel progress, so the bases subtract it back out (zero on a
    // fresh run).
    LaneBase b{warpStepsTotal_, sectorAccessesTotal_, pdesLateEvents_};
    for (const Lane *ln : lanes) {
        b.warpSteps -= ln->warpSteps;
        b.sectorAccesses -= ln->sectorAccesses;
        b.lateEvents -= ln->lateEvents;
    }
    return b;
}

template <class Lane>
KernelRunStats
KernelEngine::finishRun(const LaunchDims &dims, TraceSource &trace,
                        Cycles start, const std::vector<Lane *> &lanes,
                        const LaneBase &base)
{
    KernelRunStats stats;
    stats.startCycle = start;
    stats.endCycle = start;
    stats.tbCount = dims.numTbs();
    for (const Lane *ln : lanes) {
        stats.warpSteps += ln->warpSteps;
        stats.sectorAccesses += ln->sectorAccesses;
        stats.totalStepLatency += ln->totalStepLatency;
        stats.maxStepLatency =
            std::max(stats.maxStepLatency, ln->maxStepLatency);
        stats.endCycle = std::max(stats.endCycle, ln->endCycle);
        if (stepLatencyHist_)
            stepLatencyHist_->merge(ln->hist);
    }
    stats.warpInstrs =
        static_cast<double>(stats.warpSteps) * trace.instrsPerStep();
    warpStepsTotal_ = base.warpSteps + stats.warpSteps;
    sectorAccessesTotal_ = base.sectorAccesses + stats.sectorAccesses;
    ++kernelsRun_;
    tbsDispatchedTotal_ += static_cast<uint64_t>(stats.tbCount);
    return stats;
}

template <class Queue>
template <class Ar>
void
Lane<Queue>::io(Ar &ar)
{
    ar.fixed(cursor, "lane nodes");
    ar(hasHeld, held, warps, freeWarps);
    ar.fixed(sms, "lane SMs");
    ar(warpSteps, sectorAccesses, totalStepLatency, maxStepLatency, endCycle,
       lateEvents, hist, pq);
}

template <class Ar>
void
KernelEngine::io(Ar &ar)
{
    ar(kernelsRun_, warpStepsTotal_, sectorAccessesTotal_,
       tbsDispatchedTotal_, pdesWindows_, pdesDeferredOps_, pdesLateEvents_);
    // Wall-clock observability: restored so the gauge stays monotone,
    // but inherently not comparable across interrupted/uninterrupted
    // runs (docs/robustness.md), so kept out of the state digest.
    if constexpr (!std::is_same_v<Ar, serial::Hasher>)
        ar(pdesBarrierNs_);
    // The barrier gauges index by original shard count; never let a
    // (fingerprint-colliding) image change the vector's length.
    if constexpr (Ar::kLoading)
        pdesBarrierNs_.resize(static_cast<size_t>(maxShards_), 0);
}
LADM_SERIAL_INSTANTIATE(KernelEngine);

template <class Ar, class Lane>
void
KernelEngine::loopIo(Ar &ar, bool sharded, Cycles &clock, Launch &launch,
                     const std::vector<Lane *> &lanes)
{
    bool was_sharded = sharded;
    ar(was_sharded);
    if (was_sharded != sharded) {
        const std::string mine = sharded ? "sharded PDES" : "serial";
        const std::string theirs = sharded ? "serial" : "sharded PDES";
        throw SimError(
            SimError::Kind::Config, "checkpoint state mismatch",
            {{"checkpoint.engine", sharded ? "serial" : "sharded",
              "the checkpoint was written by the " + theirs +
                  " loop but this run resolves to the " + mine + " loop",
              "resume with the same --shards / --check setup that "
              "produced the checkpoint"}});
    }
    ar(clock);
    ar.fixed(launch.tbWarpsLeft, "threadblocks");
    ar.fixed(lanes, "engine lanes");
}

template <class Lane>
Cycles
KernelEngine::resumeLoop(bool sharded, Launch &launch,
                         const std::vector<Lane *> &lanes)
{
    ladm_require(ckpt_ && ckpt_->restorePending(),
                 "engine resume requested with no restore armed");
    serial::Reader &r = ckpt_->reader();
    r.section(snapshot::kEngine);
    Cycles clock = 0;
    loopIo(r, sharded, clock, launch, lanes);
    ckpt_->finishRestore();
    ckpt_->noteResumed(clock);
    return clock;
}

// The sharded loop (sharded_engine.cc) runs these on its node lanes.
template KernelEngine::LaneBase
KernelEngine::laneBase(const std::vector<Lane<PdesQueue> *> &) const;
template KernelRunStats
KernelEngine::finishRun(const LaunchDims &, TraceSource &, Cycles,
                        const std::vector<Lane<PdesQueue> *> &,
                        const LaneBase &);
template void KernelEngine::loopIo(serial::Writer &, bool, Cycles &,
                                   Launch &,
                                   const std::vector<Lane<PdesQueue> *> &);
template Cycles
KernelEngine::resumeLoop(bool, Launch &,
                         const std::vector<Lane<PdesQueue> *> &);

} // namespace ladm
