#include "core/experiment.hh"

#include <array>

#include "common/serial.hh"
#include "common/sim_error.hh"
#include "sim/gpu_system.hh"
#include "snapshot/snapshot.hh"
#include "telemetry/json_writer.hh"
#include "telemetry/profile.hh"
#include "telemetry/session.hh"

namespace ladm
{

namespace
{

/** Identity check between a checkpoint's run labels and this run's. */
void
expectRunLabel(const std::string &got, const std::string &want,
               const char *what)
{
    if (got == want)
        return;
    throw SimError(
        SimError::Kind::Config, "checkpoint does not match this run",
        {{std::string("checkpoint.") + what, got,
          "the checkpoint was written by a run with " + std::string(what) +
              " '" + got + "' but this run uses '" + want + "'",
          "resume with the exact command line that produced the "
          "checkpoint"}});
}

/**
 * One launch's decisions on the runtime lane at @p now: the LASP/CRB
 * plan (when @p ladm) and the scheduler's TB split over the nodes.
 */
void
traceLaunch(telemetry::TraceEmitter &tr, const std::string &kernel,
            bool ladm, const LaunchPlan &plan, int64_t tbs,
            const std::vector<std::vector<TbId>> &queues, Cycles now)
{
    using telemetry::jsonEscape;
    const std::string sched = plan.scheduler->name();
    const std::string head =
        "{\"scheduler\":\"" + jsonEscape(sched) + "\",";
    if (ladm)
        tr.instant("crb", "launch:" + kernel, telemetry::kPidRuntime, 0,
                   now,
                   head + "\"policy\":\"" +
                       jsonEscape(toString(plan.policy)) +
                       "\",\"reason\":\"" +
                       jsonEscape(plan.schedulerReason) + "\"}");
    std::string nodes;
    for (const auto &q : queues)
        nodes.append(nodes.empty() ? "" : ",").append(
            std::to_string(q.size()));
    tr.instant("sched", "assign:" + sched, telemetry::kPidRuntime, 0, now,
               head + "\"tbs\":" + std::to_string(tbs) +
                   ",\"per_node\":[" + nodes + "]}");
}

} // namespace

RunMetrics
runExperiment(Workload &workload, PolicyBundle &bundle,
              const SystemConfig &cfg, int launches)
{
    LADM_SCOPED_TIMER("experiment.run");
    ladm_require(launches >= 1, "need at least one launch");
    GpuSystem sys(cfg);
    MallocRegistry reg(cfg.pageSize);
    workload.allocateAll(reg);

    // Checkpoint/resume plumbing (null = off = zero cost). The saver
    // runs inside the engine's safe point, so `cur_launch` and `ks`
    // below are stable when it fires.
    std::unique_ptr<snapshot::Checkpointer> ckpt =
        snapshot::makeRunCheckpointer(cfg);
    if (ckpt) {
        snapshot::requireCheckpointable(
            cfg, telemetry::session().options());
        sys.attachCheckpointer(ckpt.get());
    }

    if (obs::Observer *ob = sys.observer()) {
        // Hand the allocation map over so the heatmap can attribute hot
        // pages back to named datablocks at collection time.
        std::vector<obs::BlockInfo> blocks;
        for (const Allocation &a : reg.all())
            blocks.push_back({a.name, a.base, a.size});
        ob->setDatablocks(std::move(blocks));
    }

    // Per-launch scheduler decisions, eagerly counted in the registry.
    StatGroup &sched_stats = sys.registry().group("sched");

    KernelRunStats ks;
    ks.startCycle = 0;
    LaunchPlan plan;
    int cur_launch = 0;

    // The kExperiment section: run identity, the in-flight launch and
    // the stats of the launches before it.
    const std::array<std::string, 4> ident = {
        workload.name(), bundle.name(), cfg.name, std::to_string(launches)};
    auto run_io = [](auto &ar, auto &id, int &launch, KernelRunStats &k) {
        ar(id, launch, k.startCycle, k.endCycle, k.warpSteps,
           k.sectorAccesses, k.warpInstrs, k.tbCount);
    };
    if (ckpt) {
        ckpt->setContextSaver([&](serial::Writer &w) {
            w.section(snapshot::kExperiment);
            run_io(w, ident, cur_launch, ks);
            sys.io(w);
        });
    }

    // Restore preamble: validate the checkpoint's run identity and learn
    // which launch was in flight. Host-side state (allocations, traces,
    // placement) is regenerated by replaying the deterministic per-launch
    // preparation below; device/telemetry state loads just before the
    // interrupted launch re-runs.
    int restore_l = -1;
    KernelRunStats restored_ks;
    if (ckpt && ckpt->restorePending()) {
        serial::Reader &r = ckpt->reader();
        r.section(snapshot::kExperiment);
        std::array<std::string, 4> got;
        run_io(r, got, restore_l, restored_ks);
        const char *what[] = {"workload", "policy", "system", "launches"};
        for (size_t i = 0; i < got.size(); ++i)
            expectRunLabel(got[i], ident[i], what[i]);
        ckpt->setRestoreLaunch(restore_l);
    }

    for (int l = 0; l < launches; ++l) {
        cur_launch = l;
        {
            LADM_SCOPED_TIMER("experiment.prepare");
            plan = bundle.prepare(workload.kernel(), workload.dims(),
                                  workload.argPcs(), reg,
                                  sys.mem().pageTable(), cfg);
        }
        ladm_require(plan.scheduler,
                     "policy bundle produced no scheduler");
        // The restored registry already counted the decisions of every
        // launch up to and including the interrupted one.
        if (l > restore_l)
            ++sched_stats.counter("decisions." + plan.scheduler->name());

        auto trace = workload.makeTrace(reg);
        // The sharded PDES engine needs a private trace instance per
        // extra shard: warpStep() output is a pure function of
        // (tb, warp, step), but each instance carries per-call scratch
        // buffers. Serial engines (engineShards() == 1) skip this.
        std::vector<std::unique_ptr<TraceSource>> extra_traces;
        std::vector<TraceSource *> shard_traces;
        for (int s = 1; s < sys.engineShards(); ++s) {
            extra_traces.push_back(workload.makeTrace(reg));
            shard_traces.push_back(extra_traces.back().get());
        }

        // Replay-only launch: its simulation outcome is already inside
        // the checkpoint; only the host-side preparation above (and its
        // deterministic side effects on placement/trace state) matters.
        if (l < restore_l)
            continue;

        const bool resume_here = l == restore_l;
        if (resume_here) {
            // Restore clock, memory, registry (and timeline) first:
            // assign() below must see the checkpointed sys.now() --
            // fault-degradation rebinding is time-dependent.
            sys.io(ckpt->reader());
            ks = restored_ks;
        }

        const auto queues =
            plan.scheduler->assign(workload.dims(), cfg, sys.now());
        if (telemetry::TraceEmitter *tr = sys.traceBuffer())
            traceLaunch(*tr, workload.kernel().name, bundle.runsLadm(),
                        plan, workload.dims().numTbs(), queues, sys.now());
        LADM_SCOPED_TIMER("experiment.kernels");
        const KernelRunStats k = sys.runKernel(
            workload.dims(), *trace, queues, plan.policy,
            /*flush_caches=*/l == 0 || cfg.flushL2BetweenKernels,
            shard_traces, resume_here);
        ks.endCycle = k.endCycle;
        ks.warpSteps += k.warpSteps;
        ks.sectorAccesses += k.sectorAccesses;
        ks.warpInstrs += k.warpInstrs;
        ks.tbCount += k.tbCount;
    }

    const MemorySystem &mem = sys.mem();
    RunMetrics m;
    m.workload = workload.name();
    m.policy = bundle.name();
    m.system = cfg.name;
    m.scheduler = plan.scheduler->name();
    m.insertPolicy = plan.policy;
    m.cycles = ks.cycles();
    m.tbCount = static_cast<uint64_t>(ks.tbCount);
    m.warpSteps = ks.warpSteps;
    m.sectorAccesses = ks.sectorAccesses;
    m.warpInstrs = ks.warpInstrs;
    m.fetchLocal = mem.fetchLocal();
    m.fetchRemote = mem.fetchRemote();
    // Per-node breakdown read back through the registry: the same values
    // MemorySystem published at construction, resolved by dotted path.
    m.nodeFetchLocal.resize(cfg.numNodes(), 0);
    m.nodeFetchRemote.resize(cfg.numNodes(), 0);
    for (NodeId n = 0; n < cfg.numNodes(); ++n) {
        const std::string node = "node" + std::to_string(n);
        m.nodeFetchLocal[n] = static_cast<uint64_t>(
            sys.registry()
                .value(node + ".mem.fetch_local")
                .value_or(0.0));
        m.nodeFetchRemote[n] = static_cast<uint64_t>(
            sys.registry()
                .value(node + ".mem.fetch_remote")
                .value_or(0.0));
    }
    m.offChipPct = mem.offChipFraction() * 100.0;
    m.interNodeBytes = mem.network().interNodeBytes();
    m.interGpuBytes = mem.network().interGpuBytes();
    m.l1HitRate = mem.l1Accesses()
                      ? static_cast<double>(mem.l1Hits()) /
                            mem.l1Accesses()
                      : 0.0;
    m.l2HitRate = mem.l2Accesses()
                      ? static_cast<double>(mem.l2Hits()) /
                            mem.l2Accesses()
                      : 0.0;
    const double kilo_instr = ks.warpInstrs / 1000.0;
    m.l2Mpki = kilo_instr > 0.0
                   ? (mem.fetchLocal() + mem.fetchRemote()) / kilo_instr
                   : 0.0;
    m.uvmFaults = mem.uvmFaults();
    m.rehomedPages = mem.rehomedPages();
    m.failedNodeAccesses = mem.failedNodeAccesses();
    for (int c = 0; c < kNumTrafficClasses; ++c) {
        const auto tc = static_cast<TrafficClass>(c);
        m.classAccesses[c] = mem.classAccesses(tc);
        m.classHitRate[c] =
            m.classAccesses[c]
                ? static_cast<double>(mem.classHits(tc)) /
                      m.classAccesses[c]
                : 0.0;
    }

    if (obs::Observer *ob = sys.observer()) {
        ob->finish(sys.now());
        if (obs::LatencyAttribution *lat = ob->attribution()) {
            m.hasLatency = true;
            for (size_t c = 0; c < obs::kNumLatComponents; ++c) {
                m.latency[c] = obs::summarize(lat->machineHist(
                    static_cast<obs::LatComponent>(c)));
            }
        }
        telemetry::session().recordObservation(
            ob->collect(m.workload, m.policy, sys.now()));
    }

    if (telemetry::session().statsActive()) {
        telemetry::RunRecord rec;
        rec.workload = m.workload;
        rec.policy = m.policy;
        rec.system = m.system;
        rec.scheduler = m.scheduler;
        rec.cycles = m.cycles;
        rec.tbCount = m.tbCount;
        rec.kernels = sys.kernelLog();
        rec.final = sys.registry().snapshot();
        telemetry::session().recordRun(std::move(rec));
    }
    if (telemetry::TraceEmitter *tr = sys.traceBuffer())
        telemetry::session().recordTrace(std::move(*tr));
    return m;
}

RunMetrics
runExperiment(Workload &workload, Policy policy, const SystemConfig &cfg,
              int launches)
{
    auto bundle = makeBundle(policy);
    return runExperiment(workload, *bundle, cfg, launches);
}

} // namespace ladm
