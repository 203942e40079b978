/**
 * @file
 * GpuSystem: one simulated machine instance -- configuration, memory
 * system, a running clock across kernel launches, and the machine's
 * telemetry registry (every component registers its stats here at
 * construction; per-kernel stat windows are captured at launch
 * boundaries when a stats sink is active), plus the run's trace buffer
 * when tracing.
 */

#ifndef LADM_SIM_GPU_SYSTEM_HH
#define LADM_SIM_GPU_SYSTEM_HH

#include <vector>

#include <memory>

#include "cache/insertion_policy.hh"
#include "config/system_config.hh"
#include "obs/observer.hh"
#include "sim/kernel_engine.hh"
#include "sim/memory_system.hh"
#include "sim/trace_source.hh"
#include "telemetry/session.hh"

namespace ladm
{

namespace snapshot
{
class Checkpointer;
} // namespace snapshot

class GpuSystem
{
  public:
    explicit GpuSystem(const SystemConfig &cfg);

    /**
     * Run one kernel to completion.
     *
     * @param dims         launch geometry
     * @param trace        workload access generator
     * @param node_queues  per-node TB assignment from the scheduler
     * @param policy       L2 insertion policy for this kernel (CRB output)
     * @param flush_caches software-coherence invalidation at the boundary
     * @param shard_traces extra per-shard trace instances for the
     *                     sharded PDES engine (see KernelEngine::run)
     * @param resume       continue this kernel from the checkpoint the
     *                     attached Checkpointer holds instead of starting
     *                     it: skips the boundary flush (it happened before
     *                     the checkpoint) and reuses the restored
     *                     kernel-start stat snapshot so the per-kernel
     *                     window still spans the whole launch
     */
    KernelRunStats
    runKernel(const LaunchDims &dims, TraceSource &trace,
              const std::vector<std::vector<TbId>> &node_queues,
              L2InsertPolicy policy, bool flush_caches = true,
              const std::vector<TraceSource *> &shard_traces = {},
              bool resume = false);

    /**
     * Arm periodic / on-signal checkpointing (null disarms). The pointer
     * is forwarded to the engine, whose event loop polls it at safe
     * points; with no checkpointer attached the loop pays one untaken
     * null check per event.
     */
    void attachCheckpointer(snapshot::Checkpointer *ckpt);

    /**
     * Write / restore / hash this machine's complete state as the
     * kSystem + kMemory + kRegistry (+ kTimeline) checkpoint sections.
     * Must only run at an engine safe point (between events / at a
     * window barrier): no access is in flight, so component state is
     * closed. The running kernel's event-loop lanes are not included;
     * the engine writes them as the kEngine section.
     */
    template <class Ar> void io(Ar &ar);

    /**
     * FNV-1a digest of the same io() walk, minus the host wall-clock
     * barrier-wait gauges: equal machine states give equal digests,
     * whichever run or restore produced them.
     */
    uint64_t stateDigest() const;

    /** Resolved engine shard count (1 = serial reference loop). */
    int engineShards() const { return engine_.maxShards(); }

    /** The kernel engine (e.g. to inspect pdesFallback() diagnostics). */
    const KernelEngine &engine() const { return engine_; }

    MemorySystem &mem() { return mem_; }
    const MemorySystem &mem() const { return mem_; }
    const SystemConfig &config() const { return cfg_; }
    Cycles now() const { return now_; }

    /** The machine's stat tree; fully populated at construction. */
    telemetry::StatRegistry &registry() { return reg_; }
    const telemetry::StatRegistry &registry() const { return reg_; }

    /**
     * Per-kernel stat windows (delta across each launch), collected only
     * while a stats sink is active; empty otherwise.
     */
    const std::vector<telemetry::KernelRecord> &kernelLog() const
    {
        return kernelLog_;
    }

    /**
     * The machine's observability layer, constructed iff any pillar was
     * armed in the session's TelemetryOptions (obsActive()); null when
     * observability is off, in which case every sim-layer hook reduces
     * to an untaken inline branch.
     */
    obs::Observer *observer() { return obs_.get(); }
    const obs::Observer *observer() const { return obs_.get(); }

    /**
     * The machine's trace buffer, constructed iff --trace-out is set in
     * the session's TelemetryOptions; null when tracing is off. The
     * fabric and the engine record into it; runExperiment() adds the
     * per-launch decisions and hands it to Session::recordTrace().
     */
    telemetry::TraceEmitter *traceBuffer() { return trace_.get(); }

  private:
    SystemConfig cfg_;
    MemorySystem mem_;
    KernelEngine engine_;
    Cycles now_ = 0;
    // Declared after the components whose members its gauge closures
    // read: no closure runs during destruction, but keeping the registry
    // last makes the dependency direction obvious.
    telemetry::StatRegistry reg_;
    // After reg_: the timeline samples the registry, and the registry's
    // obs.lat.* formulas read the attribution histograms.
    std::unique_ptr<obs::Observer> obs_;
    std::unique_ptr<telemetry::TraceEmitter> trace_;
    std::vector<telemetry::KernelRecord> kernelLog_;
    int kernelIndex_ = 0;
    /**
     * Registry snapshot at the running kernel's start. A member (not a
     * runKernel local) so a mid-kernel checkpoint can carry it and a
     * resumed kernel's stat window still spans [launch, completion).
     */
    telemetry::Snapshot kernelStartSnap_;
};

} // namespace ladm

#endif // LADM_SIM_GPU_SYSTEM_HH
