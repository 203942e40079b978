/**
 * @file
 * The simulator workloads: grid_small, sim_remote and sim_local.
 *
 * Untraced runs time each cell through the real entry point,
 * runExperiment(). Traced runs additionally compose the same cell from
 * the public calls runExperiment() makes, one layer at a time, with a
 * span around each call, and check that the composition reproduces
 * runExperiment()'s counters exactly.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>

#include "common/rng.hh"
#include "config/presets.hh"
#include "core/experiment.hh"
#include "runner.hh"
#include "sim/gpu_system.hh"
#include "workloads/registry.hh"

using namespace ladm;

namespace perfbench
{

namespace
{

struct SimCell
{
    std::string id;
    std::string workload;
    Policy policy = Policy::Ladm;
    SystemConfig cfg;
    double scale = 1.0;
    int launches = 1;
};

SimCell
makeCell(const std::string &workload, Policy policy, double scale,
         int shards)
{
    SimCell c;
    c.workload = workload;
    c.policy = policy;
    c.cfg = presets::multiGpu4x4();
    // Explicit, so LADM_SHARDS in the environment cannot change a cell.
    c.cfg.shards = shards;
    c.scale = scale;
    char buf[32];
    std::snprintf(buf, sizeof buf, "@%g", scale);
    c.id = workload + "/" + toString(policy) + buf;
    if (shards > 1)
        c.id += "/shards" + std::to_string(shards);
    return c;
}

/** The workload's cells in canonical order (each pass shuffles them). */
std::vector<SimCell>
simCells(const std::string &workload)
{
    std::vector<SimCell> cells;
    if (workload == "grid_small") {
        for (const std::string &w : workloads::allWorkloadNames())
            for (const Policy p : {Policy::BaselineRr, Policy::BatchFt,
                                   Policy::Coda, Policy::Ladm})
                cells.push_back(makeCell(w, p, 0.1, 1));
    } else if (workload == "sim_remote") {
        // The simperf "interleaved" and "first-touch" baskets.
        for (const char *w : {"VecAdd", "ScalarProd", "CONV", "SQ-GEMM"})
            cells.push_back(makeCell(w, Policy::BaselineRr, 1.0, 1));
        for (const char *w : {"VecAdd", "CONV", "BFS-relax"})
            cells.push_back(makeCell(w, Policy::BatchFt, 1.0, 1));
    } else if (workload == "sim_local") {
        // The simperf "pdes" basket, on two engine shards.
        cells.push_back(makeCell("VecAdd", Policy::Ladm, 4.0, 2));
        cells.push_back(makeCell("ScalarProd", Policy::Ladm, 4.0, 2));
        cells.push_back(makeCell("CONV", Policy::Ladm, 1.0, 2));
        cells.push_back(makeCell("SRAD", Policy::Ladm, 4.0, 2));
    } else {
        throw std::invalid_argument("unknown sim workload " + workload);
    }
    return cells;
}

/**
 * The untimed warm-up cell of set-up: the workload's first canonical
 * cell, at a tenth of its scale when that is full scale or more. It does
 * not depend on the seed, so neither does set-up.
 */
SimCell
warmupCell(const std::string &workload)
{
    const SimCell first = simCells(workload).front();
    const double scale = first.scale >= 1.0 ? first.scale / 10.0
                                            : first.scale;
    return makeCell(first.workload, first.policy, scale, first.cfg.shards);
}

void
shuffle(std::vector<SimCell> &cells, Rng &rng)
{
    for (size_t i = cells.size(); i > 1; --i)
        std::swap(cells[i - 1], cells[rng.nextBounded(i)]);
}

/**
 * The statistics a cell's correctness is judged by. A change that only
 * speeds up the simulator must leave every field identical.
 */
struct Digest
{
    uint64_t cycles = 0;
    uint64_t warpSteps = 0;
    uint64_t sectorAccesses = 0;
    uint64_t uvmFaults = 0;
    std::vector<uint64_t> fetchLocal;  ///< per node
    std::vector<uint64_t> fetchRemote; ///< per node
    double l1HitRate = 0.0;
    double l2HitRate = 0.0;
};

Digest
digestOf(const RunMetrics &m)
{
    Digest d;
    d.cycles = m.cycles;
    d.warpSteps = m.warpSteps;
    d.sectorAccesses = m.sectorAccesses;
    d.uvmFaults = m.uvmFaults;
    d.fetchLocal = m.nodeFetchLocal;
    d.fetchRemote = m.nodeFetchRemote;
    d.l1HitRate = m.l1HitRate;
    d.l2HitRate = m.l2HitRate;
    return d;
}

/** Names of the fields where @p a and @p b differ. */
std::vector<std::string>
diffFields(const Digest &a, const Digest &b)
{
    std::vector<std::string> out;
    if (a.cycles != b.cycles)
        out.push_back("cycles");
    if (a.warpSteps != b.warpSteps)
        out.push_back("warp_steps");
    if (a.sectorAccesses != b.sectorAccesses)
        out.push_back("sector_accesses");
    if (a.uvmFaults != b.uvmFaults)
        out.push_back("uvm_faults");
    if (a.fetchLocal != b.fetchLocal)
        out.push_back("fetch_local");
    if (a.fetchRemote != b.fetchRemote)
        out.push_back("fetch_remote");
    if (a.l1HitRate != b.l1HitRate)
        out.push_back("l1_hit_rate");
    if (a.l2HitRate != b.l2HitRate)
        out.push_back("l2_hit_rate");
    return out;
}

void
writeDigest(telemetry::JsonWriter &w, const Digest &d)
{
    w.beginObject();
    w.kv("cycles", d.cycles);
    w.kv("warp_steps", d.warpSteps);
    w.kv("sector_accesses", d.sectorAccesses);
    w.kv("uvm_faults", d.uvmFaults);
    w.key("fetch_local").beginArray();
    for (const uint64_t v : d.fetchLocal)
        w.value(v);
    w.endArray();
    w.key("fetch_remote").beginArray();
    for (const uint64_t v : d.fetchRemote)
        w.value(v);
    w.endArray();
    w.kv("l1_hit_rate", d.l1HitRate);
    w.kv("l2_hit_rate", d.l2HitRate);
    w.endObject();
}

/** One cell through the real entry point, as bench_simperf runs it. */
RunMetrics
runCell(const SimCell &c)
{
    auto w = workloads::makeWorkload(c.workload, c.scale);
    auto bundle = makeBundle(c.policy);
    return runExperiment(*w, *bundle, c.cfg, c.launches);
}

/** What the layer-by-layer composition of one cell observed. */
struct Composed
{
    Digest digest;
    /** Layer counters read from MemorySystem / the registry. */
    std::map<std::string, double> counters;
    double pdesFallback = -1.0; ///< -1 when the gauge is absent
    double pdesShards = 1.0;
};

/**
 * runExperiment(), rebuilt from the public calls it composes, with a
 * span around each call. Must stay call-for-call equivalent to
 * core/experiment.cc (minus checkpointing and observers, which the
 * benchmark never arms); the composition check enforces it.
 */
Composed
composeCell(const SimCell &c, SpanRecorder *rec, uint64_t op)
{
    using Scope = SpanRecorder::Scope;
    Scope cell(rec, "cell", op);
    Composed out;

    std::unique_ptr<Workload> w;
    {
        Scope s(rec, "workloads.make", op);
        w = workloads::makeWorkload(c.workload, c.scale);
    }
    std::unique_ptr<PolicyBundle> bundle;
    {
        Scope s(rec, "runtime.prepare", op);
        bundle = makeBundle(c.policy);
    }
    std::unique_ptr<GpuSystem> sys;
    {
        Scope s(rec, "sim.construct", op);
        sys = std::make_unique<GpuSystem>(c.cfg);
    }
    MallocRegistry reg(c.cfg.pageSize);
    {
        Scope s(rec, "workloads.make", op);
        w->allocateAll(reg);
    }

    KernelRunStats ks;
    for (int l = 0; l < c.launches; ++l) {
        LaunchPlan plan;
        {
            Scope s(rec, "runtime.prepare", op);
            plan = bundle->prepare(w->kernel(), w->dims(), w->argPcs(), reg,
                                   sys->mem().pageTable(), c.cfg);
        }
        if (!plan.scheduler)
            throw std::runtime_error("policy bundle produced no scheduler");
        ++sys->registry().group("sched").counter(
            "decisions." + plan.scheduler->name());

        std::unique_ptr<TraceSource> trace;
        std::vector<std::unique_ptr<TraceSource>> extra_traces;
        std::vector<TraceSource *> shard_traces;
        {
            Scope s(rec, "workloads.make", op);
            trace = w->makeTrace(reg);
            for (int sh = 1; sh < sys->engineShards(); ++sh) {
                extra_traces.push_back(w->makeTrace(reg));
                shard_traces.push_back(extra_traces.back().get());
            }
        }
        std::vector<std::vector<TbId>> queues;
        {
            Scope s(rec, "sched.assign", op);
            queues = plan.scheduler->assign(w->dims(), c.cfg, sys->now());
        }
        KernelRunStats k;
        {
            Scope s(rec, "sim.run_kernel", op);
            k = sys->runKernel(w->dims(), *trace, queues, plan.policy,
                               l == 0 || c.cfg.flushL2BetweenKernels,
                               shard_traces);
        }
        ks.endCycle = k.endCycle;
        ks.warpSteps += k.warpSteps;
        ks.sectorAccesses += k.sectorAccesses;
    }

    const MemorySystem &mem = sys->mem();
    const telemetry::StatRegistry &r = sys->registry();
    Digest &d = out.digest;
    d.cycles = ks.cycles();
    d.warpSteps = ks.warpSteps;
    d.sectorAccesses = ks.sectorAccesses;
    d.uvmFaults = mem.uvmFaults();
    for (NodeId n = 0; n < c.cfg.numNodes(); ++n) {
        d.fetchLocal.push_back(mem.fetchLocal(n));
        d.fetchRemote.push_back(mem.fetchRemote(n));
    }
    const auto rate = [](uint64_t hits, uint64_t acc) {
        return acc ? static_cast<double>(hits) / acc : 0.0;
    };
    d.l1HitRate = rate(mem.l1Hits(), mem.l1Accesses());
    d.l2HitRate = rate(mem.l2Hits(), mem.l2Accesses());

    std::map<std::string, double> &k = out.counters;
    k["sim.warp_steps"] = static_cast<double>(ks.warpSteps);
    k["sim.sector_accesses"] = static_cast<double>(ks.sectorAccesses);
    k["sim.cycles"] = static_cast<double>(ks.cycles());
    k["mem.l1_hits"] = static_cast<double>(mem.l1Hits());
    k["mem.l1_accesses"] = static_cast<double>(mem.l1Accesses());
    k["mem.l2_hits"] = static_cast<double>(mem.l2Hits());
    k["mem.l2_accesses"] = static_cast<double>(mem.l2Accesses());
    k["mem.fetch_local"] = static_cast<double>(mem.fetchLocal());
    k["mem.fetch_remote"] = static_cast<double>(mem.fetchRemote());
    k["mem.uvm_faults"] = static_cast<double>(mem.uvmFaults());
    k["mem.mshr_merges"] = static_cast<double>(mem.mshrMerges());
    k["net.inter_node_bytes"] =
        static_cast<double>(mem.network().interNodeBytes());
    k["net.inter_gpu_bytes"] =
        static_cast<double>(mem.network().interGpuBytes());
    k["engine.pdes.windows"] = r.value("engine.pdes.windows").value_or(0);
    k["engine.pdes.deferred_ops"] =
        r.value("engine.pdes.deferred_ops").value_or(0);
    double barrier_ns = 0.0;
    for (int sh = 0; sh < sys->engineShards(); ++sh)
        barrier_ns += r.value("engine.pdes.shard" + std::to_string(sh) +
                              ".barrier_wait_ns")
                          .value_or(0);
    k["engine.pdes.barrier_wait_ns"] = barrier_ns;
    out.pdesFallback = r.value("engine.pdes.fallback_reason").value_or(-1);
    out.pdesShards = r.value("engine.pdes.shards").value_or(1);

    {
        Scope s(rec, "sim.destroy", op);
        sys.reset();
    }
    return out;
}

/** One timed operation of the measured window. */
struct OpRecord
{
    std::string id;
    int pass = 0;
    double ms = 0.0;
    Digest digest;
    std::string error; ///< empty when the cell ran
};

struct PassRecord
{
    double seconds = 0.0;
    uint64_t warpSteps = 0;
};

struct PdesRecord
{
    std::string id;
    double fallback = -1.0;
    double shards = 1.0;
};

/** Traced-run extras: layer counters and the composition check. */
struct TraceRecord
{
    std::map<std::string, double> counters; ///< summed over cells
    double untracedSeconds = 0.0;
    double tracedSeconds = 0.0;
    uint64_t warpSteps = 0;
    std::vector<std::pair<std::string, std::vector<std::string>>>
        mismatches;
};

struct SimResult
{
    std::vector<double> setupSeconds;
    std::vector<PassRecord> passes;
    std::vector<OpRecord> ops;
    std::vector<PdesRecord> pdes;
    int64_t peakRssKb = 0; ///< after the first pass
    bool traced = false;
    TraceRecord trace;
};

/**
 * Run @p cell untraced (through runExperiment) and traced (composed),
 * alternating which goes first so neither side always finds the host
 * caches warm. Records the untraced op; the traced side feeds @p tr.
 */
OpRecord
runTracedPair(const SimCell &cell, int pass, uint64_t op, SpanRecorder *rec,
              TraceRecord &tr, std::vector<PdesRecord> &pdes)
{
    OpRecord o;
    o.id = cell.id;
    o.pass = pass;
    Composed comp;
    RunMetrics m;
    for (int side = 0; side < 2; ++side) {
        const bool traced_now = (side == 0) == (op % 2 == 1);
        const auto t0 = Clock::now();
        if (traced_now) {
            comp = composeCell(cell, rec, op);
            tr.tracedSeconds += secondsSince(t0);
        } else {
            m = runCell(cell);
            const double s = secondsSince(t0);
            tr.untracedSeconds += s;
            o.ms = s * 1e3;
        }
    }
    o.digest = digestOf(m);
    tr.warpSteps += m.warpSteps;
    for (const auto &[k, v] : comp.counters)
        tr.counters[k] += v;
    std::vector<std::string> diff = diffFields(o.digest, comp.digest);
    if (!diff.empty())
        tr.mismatches.emplace_back(cell.id, std::move(diff));
    if (cell.cfg.shards > 1)
        pdes.push_back({cell.id, comp.pdesFallback, comp.pdesShards});
    return o;
}

/** Every cell once through the composition, to read the PDES gauges. */
void
checkPdes(const std::vector<SimCell> &cells, std::vector<PdesRecord> &out)
{
    for (const SimCell &c : cells) {
        const Composed comp = composeCell(c, nullptr, 0);
        out.push_back({c.id, comp.pdesFallback, comp.pdesShards});
    }
}

SimResult
runSim(const std::string &workload, uint64_t seed, double seconds,
       bool traced, SpanRecorder *rec)
{
    SimResult res;
    res.traced = traced;
    // Every pass starts with a set-up, timed apart from the pass, so
    // setup_s is a median over the whole run and not over one moment of
    // a shared host.
    std::vector<SimCell> cells;
    const auto setUp = [&] {
        const auto t0 = Clock::now();
        cells = simCells(workload);
        runCell(warmupCell(workload));
        res.setupSeconds.push_back(secondsSince(t0));
    };
    setUp();

    // Every pass runs the cells in a fresh seeded order. Host speed
    // depends on the order (allocator and cache state carry over between
    // cells), so a cell's fastest pass is not tied to one order.
    Rng order(seed);
    const auto start = Clock::now();
    uint64_t op = 0;
    for (int pass = 0; pass == 0 || secondsSince(start) < seconds; ++pass) {
        if (pass > 0)
            setUp();
        shuffle(cells, order);
        PassRecord pr;
        const auto t0 = Clock::now();
        for (const SimCell &c : cells) {
            OpRecord o;
            try {
                if (traced) {
                    o = runTracedPair(c, pass, op, rec, res.trace, res.pdes);
                } else {
                    o.id = c.id;
                    o.pass = pass;
                    const auto c0 = Clock::now();
                    const RunMetrics m = runCell(c);
                    o.ms = secondsSince(c0) * 1e3;
                    o.digest = digestOf(m);
                }
                pr.warpSteps += o.digest.warpSteps;
            } catch (const std::exception &e) {
                o.id = c.id;
                o.pass = pass;
                o.error = *e.what() ? e.what() : "exception";
            }
            ++op;
            res.ops.push_back(std::move(o));
        }
        pr.seconds = secondsSince(t0);
        res.passes.push_back(pr);
        if (pass == 0)
            res.peakRssKb = peakRssKb();
    }
    // Untraced sharded runs cannot see the engine's gauges through
    // runExperiment(); one composed pass after the window reads them.
    if (!traced && cells.front().cfg.shards > 1)
        checkPdes(cells, res.pdes);
    return res;
}

void
writeSim(telemetry::JsonWriter &w, const char *role, const SimResult &res)
{
    w.beginObject();
    w.kv("role", role);
    w.kv("kind", "sim");
    w.kv("peak_rss_kb", res.peakRssKb);
    w.key("setup_s").beginArray();
    for (const double s : res.setupSeconds)
        w.value(s);
    w.endArray();
    w.key("passes").beginArray();
    for (const PassRecord &p : res.passes) {
        w.beginObject();
        w.kv("seconds", p.seconds);
        w.kv("warp_steps", p.warpSteps);
        w.endObject();
    }
    w.endArray();
    w.key("ops").beginArray();
    for (const OpRecord &o : res.ops) {
        w.beginObject();
        w.kv("id", o.id);
        w.kv("pass", o.pass);
        w.kv("ms", o.ms);
        if (o.error.empty()) {
            w.key("digest");
            writeDigest(w, o.digest);
        } else {
            w.kv("error", o.error);
        }
        w.endObject();
    }
    w.endArray();
    w.key("pdes").beginArray();
    for (const PdesRecord &p : res.pdes) {
        w.beginObject();
        w.kv("id", p.id);
        w.kv("fallback", p.fallback);
        w.kv("shards", p.shards);
        w.endObject();
    }
    w.endArray();
    if (res.traced) {
        const TraceRecord &t = res.trace;
        w.key("traced").beginObject();
        w.kv("untraced_s", t.untracedSeconds);
        w.kv("traced_s", t.tracedSeconds);
        w.kv("warp_steps", t.warpSteps);
        w.key("counters").beginObject();
        for (const auto &[k, v] : t.counters)
            w.kv(k, v);
        w.endObject();
        w.key("mismatches").beginArray();
        for (const auto &[id, fields] : t.mismatches) {
            w.beginObject();
            w.kv("id", id);
            w.key("fields").beginArray();
            for (const std::string &f : fields)
                w.value(f);
            w.endArray();
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();
}

} // namespace

bool
isSimWorkload(const std::string &name)
{
    return name == "grid_small" || name == "sim_remote" ||
           name == "sim_local";
}

void
runSimWorkload(const RunOptions &opts, telemetry::JsonWriter &w,
               std::deque<SpanRecorder> &spans)
{
    SpanRecorder *rec = nullptr;
    if (opts.trace)
        rec = &newRecorder(spans, "main");
    SimResult res;
    if (opts.workload == "sim_local") {
        // Two engine shards need two cores.
        res = runSim(opts.workload, opts.seed, opts.seconds, opts.trace,
                     rec);
    } else {
        const OneCore pin;
        res = runSim(opts.workload, opts.seed, opts.seconds, opts.trace,
                     rec);
    }
    writeSim(w, "main", res);
}

void
runSimProbe(telemetry::JsonWriter &w, std::deque<SpanRecorder> &spans)
{
    // A sim_local cell at half its scale: small, but with enough
    // cross-node traffic to open PDES windows. Three passes, so each side
    // of the traced/untraced pair also runs second at least once.
    constexpr int kPasses = 3;
    SpanRecorder *rec = &newRecorder(spans, "probe");
    SimResult res;
    res.traced = true;
    const SimCell cell = makeCell("CONV", Policy::Ladm, 0.5, 2);
    for (int pass = 0; pass < kPasses; ++pass) {
        PassRecord pr;
        const auto t0 = Clock::now();
        OpRecord o = runTracedPair(cell, pass, static_cast<uint64_t>(pass),
                                   rec, res.trace, res.pdes);
        pr.seconds = secondsSince(t0);
        pr.warpSteps = o.digest.warpSteps;
        res.passes.push_back(pr);
        res.ops.push_back(std::move(o));
    }
    res.peakRssKb = peakRssKb();
    writeSim(w, "probe", res);
}

} // namespace perfbench
