#include "sim/gpu_system.hh"

#include <iostream>
#include <string>

#include "check/invariants.hh"
#include "common/serial.hh"
#include "snapshot/snapshot.hh"
#include "telemetry/exporters.hh"

namespace ladm
{

GpuSystem::GpuSystem(const SystemConfig &cfg)
    : cfg_(cfg), mem_(cfg), engine_(cfg_, mem_)
{
    mem_.registerStats(reg_, [this] { return now_; });
    engine_.registerStats(reg_);

    const TelemetryOptions &topts = telemetry::session().options();
    if (topts.obsActive()) {
        // The timeline must see the fully-registered stat tree, so the
        // observer is built after every component published its stats.
        obs_ = std::make_unique<obs::Observer>(cfg_, topts, &reg_);
        obs_->registerStats(reg_);
        mem_.attachObserver(obs_->attribution(), obs_->heatmap());
        engine_.attachTimeline(obs_->timeline());
    }

    if (topts.traceEnabled()) {
        trace_ = std::make_unique<telemetry::TraceEmitter>(
            topts.traceSampleEvery, topts.traceMaxEvents, cfg_.clockGhz);
        // Run boundary marker; the merge shifts it to the run's offset.
        trace_->instant("runtime", "timeline:" + cfg_.name,
                        telemetry::kPidRuntime, 0, 0);
        trace_->processName(telemetry::kPidRuntime,
                            "runtime (" + cfg_.name + ")");
        trace_->processName(telemetry::kPidInterconnect, "interconnect");
        for (NodeId n = 0; n < cfg_.numNodes(); ++n)
            trace_->processName(telemetry::kPidNodeBase + n,
                                "node" + std::to_string(n));
        mem_.attachTracer(trace_.get());
        engine_.attachTracer(trace_.get());
    }
}

void
GpuSystem::attachCheckpointer(snapshot::Checkpointer *ckpt)
{
    engine_.attachCheckpointer(ckpt);
}

KernelRunStats
GpuSystem::runKernel(const LaunchDims &dims, TraceSource &trace,
                     const std::vector<std::vector<TbId>> &node_queues,
                     L2InsertPolicy policy, bool flush_caches,
                     const std::vector<TraceSource *> &shard_traces,
                     bool resume)
{
    // On resume, the boundary flush already happened in the original run
    // before the checkpoint was taken; repeating it would wipe restored
    // cache contents.
    if (flush_caches && !resume)
        mem_.flushCaches();
    mem_.setInsertPolicy(policy);

    const bool windowed = telemetry::session().statsActive();
    if (windowed && !resume)
        kernelStartSnap_ = reg_.snapshot();

    KernelRunStats s;
    try {
        s = engine_.run(dims, trace, node_queues, now_, shard_traces,
                        resume);
    } catch (const InvariantViolation &) {
        // Post-mortem: leave the whole stat tree behind before the
        // violation propagates, so a hung or leaking run is debuggable
        // from its stderr alone.
        if (check::enabled()) {
            std::cerr << "--- ladm::check post-mortem (" << cfg_.name
                      << ", kernel " << kernelIndex_ << ") ---\n";
            telemetry::exportText(std::cerr, reg_);
        }
        throw;
    }
    now_ = s.endCycle;

    const int idx = kernelIndex_++;
    if (trace_) {
        trace_->complete("kernel", "kernel" + std::to_string(idx),
                         telemetry::kPidRuntime, 0, s.startCycle,
                         s.endCycle,
                         "{\"tbs\":" + std::to_string(s.tbCount) + "}");
    }
    if (windowed) {
        telemetry::KernelRecord rec;
        rec.index = idx;
        rec.startCycle = s.startCycle;
        rec.endCycle = s.endCycle;
        rec.stats = reg_.snapshot().delta(kernelStartSnap_);
        kernelLog_.push_back(std::move(rec));
    }
    return s;
}

template <class Ar>
void
GpuSystem::io(Ar &ar)
{
    ar.section(snapshot::kSystem);
    ar(now_, kernelIndex_, kernelLog_, kernelStartSnap_, engine_);
    ar.section(snapshot::kMemory);
    ar(mem_);
    ar.section(snapshot::kRegistry);
    ar(reg_);
    if (obs_ && obs_->timeline() &&
        ar.section(snapshot::kTimeline, /*optional=*/true))
        ar(*obs_->timeline());
}
LADM_SERIAL_INSTANTIATE(GpuSystem);

uint64_t
GpuSystem::stateDigest() const
{
    serial::Hasher h;
    const_cast<GpuSystem *>(this)->io(h); // hashing only reads
    return h.value();
}

} // namespace ladm
