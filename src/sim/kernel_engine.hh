/**
 * @file
 * KernelEngine: event-driven execution of one kernel launch.
 *
 * The engine walks every threadblock's warps through their trace steps
 * (see sim/trace_source.hh) with the machine's real concurrency limits:
 * warp slots and resident-TB limits per SM, dynamic TB dispatch within a
 * node (an SM pulls the next block from its node's queue as soon as one
 * retires), and memory timing from MemorySystem. The only events are warp
 * wake-ups, kept in a min-heap so shared bandwidth servers observe
 * requests in global time order.
 */

#ifndef LADM_SIM_KERNEL_ENGINE_HH
#define LADM_SIM_KERNEL_ENGINE_HH

#include <vector>

#include "common/types.hh"
#include "config/system_config.hh"
#include "kernel/kernel_desc.hh"
#include "sim/memory_system.hh"
#include "sim/trace_source.hh"

namespace ladm
{

class Histogram;
namespace telemetry
{
class StatRegistry;
class TraceEmitter;
}
namespace obs
{
class Timeline;
}
namespace snapshot
{
class Checkpointer;
}
namespace engine_detail
{
struct Launch;
} // namespace engine_detail

/** Outcome of one kernel execution. */
struct KernelRunStats
{
    Cycles startCycle = 0;
    Cycles endCycle = 0;
    uint64_t warpSteps = 0;
    uint64_t sectorAccesses = 0;
    double warpInstrs = 0.0;
    int64_t tbCount = 0;
    /** Aggregate warp-step service time (diagnostics). */
    Cycles totalStepLatency = 0;
    Cycles maxStepLatency = 0;

    Cycles cycles() const { return endCycle - startCycle; }
};

class KernelEngine
{
  public:
    KernelEngine(const SystemConfig &cfg, MemorySystem &mem);

    /**
     * Execute a kernel to completion.
     *
     * @param dims         launch geometry
     * @param trace        workload access generator
     * @param node_queues  per-node ordered TB lists from the scheduler;
     *                     must cover every TB exactly once
     * @param start        cycle at which the launch begins
     * @param shard_traces additional trace instances (one per shard
     *                     beyond the first) for the sharded PDES loop;
     *                     each shard thread needs its own instance
     *                     because warpStep() uses per-object scratch
     *                     buffers. With fewer instances than shards the
     *                     engine runs the serial loop (and says so: see
     *                     pdesFallback()).
     * @param resume       restore mid-kernel loop state from the
     *                     attached Checkpointer's kEngine section and
     *                     continue instead of admitting from scratch
     */
    KernelRunStats run(const LaunchDims &dims, TraceSource &trace,
                       const std::vector<std::vector<TbId>> &node_queues,
                       Cycles start,
                       const std::vector<TraceSource *> &shard_traces =
                           {},
                       bool resume = false);

    /**
     * Shard count this engine was configured with (resolved, clamped to
     * the node count). 1 = serial reference loop. Individual runs may
     * still fall back to the serial loop (invariant checks,
     * shard-incompatible memory features, missing per-shard traces).
     */
    int maxShards() const { return maxShards_; }

    /**
     * Publish cumulative engine counters (kernels, warp steps, sector
     * accesses, TBs dispatched) and the warp-step service-time histogram
     * under "engine" in the registry.
     */
    void registerStats(telemetry::StatRegistry &reg);

    /**
     * Checkpoint the cumulative counters (GpuSystem's kSystem section;
     * the running kernel's loop state is the kEngine section). The
     * wall-clock barrier waits are written and read but not hashed.
     */
    template <class Ar> void io(Ar &ar);

    /**
     * Arm the cycle-windowed timeline sampler (null = off). When armed
     * the event loop pays one inline compare per warp event; when not,
     * one untaken branch.
     */
    void attachTimeline(obs::Timeline *t) { timeline_ = t; }

    /**
     * Record TB and warp-stall spans into @p tr (null = off). The
     * sharded loop gives each lane its own emitter and appends the lanes
     * to @p tr in node order at kernel end.
     */
    void attachTracer(telemetry::TraceEmitter *tr) { tr_ = tr; }

    /**
     * Arm checkpointing (null = off = one untaken null check per event).
     * The engine polls Checkpointer::pending() at its safe points --
     * between events serially, at the window-advance barrier sharded --
     * and also dumps a post-mortem checkpoint when the watchdog fires.
     */
    void attachCheckpointer(snapshot::Checkpointer *c) { ckpt_ = c; }

    /**
     * Why the last run() with maxShards() > 1 used the serial loop
     * instead of the sharded PDES loop (None = it ran sharded). The
     * reason is also published as the "engine.pdes.fallback_reason"
     * gauge and warned once per distinct reason, so a silently-serial
     * run is diagnosable from its telemetry alone. Value 2 is retired
     * (event tracing once forced the serial loop); the others keep their
     * numbers, which sinks and scripts read.
     */
    enum class PdesFallback : int
    {
        None = 0,
        CheckSuite = 1,         ///< LADM_CHECK invariants force serial
        MemoryIncompatible = 3, ///< see MemorySystem::shardIncompatibleReason
        MissingShardTraces = 4, ///< caller supplied too few trace instances
        ZeroLookahead = 5,      ///< config gives a zero conservative window
    };

    PdesFallback pdesFallback() const { return fallback_; }
    /** Human-readable detail of the last fallback ("" when None). */
    const std::string &pdesFallbackDetail() const { return fallbackDetail_; }

  private:
    /** Record + publish a PDES->serial fallback (warns once per reason). */
    void noteFallback(PdesFallback fb, const char *detail);
    /**
     * The sharded conservative-PDES event loop (sim/sharded_engine.cc):
     * one worker thread per shard, warps partitioned by NUMA node,
     * threads synchronized on time windows of `lookahead_` cycles with
     * cross-node memory operations executed in the serial barrier
     * phase. Inputs are pre-validated by run().
     */
    KernelRunStats runSharded(
        const LaunchDims &dims, TraceSource &trace,
        const std::vector<TraceSource *> &shard_traces,
        const std::vector<std::vector<TbId>> &node_queues, Cycles start,
        bool resume);

    using Launch = engine_detail::Launch;

    /** The launch-wide state both loops hand to their lanes. */
    Launch makeLaunch(const LaunchDims &dims,
                      const std::vector<std::vector<TbId>> &node_queues)
        const;

    /** Cumulative totals less the lanes' own (restored) progress. */
    struct LaneBase
    {
        uint64_t warpSteps;
        uint64_t sectorAccesses;
        uint64_t lateEvents;
    };
    template <class Lane>
    LaneBase laneBase(const std::vector<Lane *> &lanes) const;

    /** Fold the lanes into the run's stats and the cumulative counters. */
    template <class Lane>
    KernelRunStats finishRun(const LaunchDims &dims, TraceSource &trace,
                             Cycles start, const std::vector<Lane *> &lanes,
                             const LaneBase &base);

    /**
     * Checkpoint image of either loop at a safe point (kEngine section):
     * loop kind, the loop clock (serial: last event cycle; sharded: the
     * advanced window end), TB countdown and every lane.
     */
    template <class Ar, class Lane>
    void loopIo(Ar &ar, bool sharded, Cycles &clock, Launch &launch,
                const std::vector<Lane *> &lanes);
    /** Restore the armed checkpoint's loop image; returns its clock. */
    template <class Lane>
    Cycles resumeLoop(bool sharded, Launch &launch,
                      const std::vector<Lane *> &lanes);

    const SystemConfig &cfg_;
    MemorySystem &mem_;
    obs::Timeline *timeline_ = nullptr;
    telemetry::TraceEmitter *tr_ = nullptr;
    snapshot::Checkpointer *ckpt_ = nullptr;
    /** nodeOfSm() hoisted into a table, built once per topology. */
    std::vector<NodeId> smNode_;

    /** Resolved shard count (cfg.shards / LADM_SHARDS, clamped). */
    int maxShards_ = 1;
    /** Conservative window width: min cross-node link latency. */
    Cycles lookahead_ = 0;

    // Cumulative across run() calls; published as Counter-kind gauges so
    // per-kernel deltas recover the per-launch values.
    uint64_t kernelsRun_ = 0;
    uint64_t warpStepsTotal_ = 0;
    uint64_t sectorAccessesTotal_ = 0;
    uint64_t tbsDispatchedTotal_ = 0;

    // PDES shard counters (cumulative; registered when maxShards_ > 1).
    // windows/deferred/late are deterministic functions of the run;
    // barrier-wait is wall-clock observability (per shard, nanoseconds).
    uint64_t pdesWindows_ = 0;
    uint64_t pdesDeferredOps_ = 0;
    uint64_t pdesLateEvents_ = 0;
    std::vector<uint64_t> pdesBarrierNs_;

    /** Lives in the registry's "engine" group; null until registered. */
    Histogram *stepLatencyHist_ = nullptr;

    /** Last run's PDES->serial fallback reason (satellite diagnostic). */
    PdesFallback fallback_ = PdesFallback::None;
    std::string fallbackDetail_;
    /** Bitmask of reasons already warned about (warn once per reason). */
    unsigned fallbackWarned_ = 0;
};

const char *toString(KernelEngine::PdesFallback fb);

} // namespace ladm

#endif // LADM_SIM_KERNEL_ENGINE_HH
