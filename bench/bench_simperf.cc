/**
 * @file
 * Simulator-throughput benchmark: how many warp steps and sector
 * accesses per second of wall time the simulator itself sustains.
 *
 * Unlike every other bench (which reports *simulated* metrics), this one
 * tracks the speed of the simulation loop -- the ceiling on how many
 * grid points, scales and seeds every other harness can afford. Three
 * baskets stress the per-access hot paths differently:
 *
 *   interleaved  page-granularity round-robin placement (baseline-rr):
 *                the worst case for the page table -- every page has a
 *                different home than its neighbours
 *   lasp         the full LADM runtime: segment-shaped placements from
 *                LASP plus CRB scheduling
 *   first-touch  batch+ft: no proactive placement, every page resolves
 *                through a UVM fault (exception-overlay heavy)
 *
 * Output: one row per basket plus a total, and BENCH_simperf.json (schema
 * ladm-simperf-v1). Runs are strictly serial -- wall-clock throughput of
 * one worker is the tracked number; --jobs is accepted but ignored.
 *
 * Flags (--help lists them): --repeats, --baseline, --max-regression
 * (with --baseline, exit 1 if total throughput drops below (1-F) x
 * baseline) and --min-shard-speedup (exit 1 if the PDES basket's
 * --shards=4 over --shards=1 speedup falls below F; enforced only when
 * the host has >= 4 cores, otherwise noted and skipped).
 *
 * The extra "pdes" basket runs a high-locality big-topology set (the
 * sharded event loop's intended regime: under LADM placement nearly
 * every fetch is node-local, so almost no work serializes at the window
 * barrier) once with --shards=1 and once with --shards=4, and records
 * both throughputs plus their ratio. The two passes must agree exactly
 * on warp-step counts -- that conservation is checked here, not just in
 * the unit tests.
 */

#include <chrono>
#include <fstream>
#include <iterator>
#include <thread>

#include "bench_util.hh"
#include "telemetry/session.hh"

using namespace ladm;
using namespace ladm::bench;

namespace
{

struct Basket
{
    std::string name;
    std::vector<core::SweepCell> cells;
};

struct BasketResult
{
    std::string name;
    uint64_t warpSteps = 0;
    uint64_t sectorAccesses = 0;
    uint64_t runs = 0;
    double seconds = 0.0;

    double wsps() const { return safeRate(warpSteps, seconds); }
    double saps() const { return safeRate(sectorAccesses, seconds); }
};

/** Wall-clock one serial pass over the basket's cells. */
BasketResult
runBasket(const Basket &b, int repeats)
{
    BasketResult best;
    best.name = b.name;
    best.seconds = 0.0;
    for (int r = 0; r < std::max(1, repeats); ++r) {
        BasketResult pass;
        pass.name = b.name;
        const auto t0 = std::chrono::steady_clock::now();
        for (const core::SweepCell &c : b.cells) {
            auto w = workloads::makeWorkload(c.workload, c.scale);
            auto bundle = makeBundle(c.policy);
            const RunMetrics m =
                runExperiment(*w, *bundle, c.cfg, c.launches);
            pass.warpSteps += m.warpSteps;
            pass.sectorAccesses += m.sectorAccesses;
            ++pass.runs;
        }
        const auto t1 = std::chrono::steady_clock::now();
        pass.seconds =
            std::chrono::duration<double>(t1 - t0).count();
        if (r == 0 || pass.wsps() > best.wsps())
            best = pass;
    }
    return best;
}

/**
 * Minimal extraction of "key": value from a prior BENCH_simperf.json.
 * The document is machine-written by JsonWriter, so a substring scan is
 * exact enough; returns a negative value when the key is absent.
 */
double
extractJsonNumber(const std::string &text, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const size_t pos = text.find(needle);
    if (pos == std::string::npos)
        return -1.0;
    return std::atof(text.c_str() + pos + needle.size());
}

} // namespace

int
benchMain(int argc, char **argv)
{
    int repeats = 3;
    std::string baseline_path;
    double max_regression = 0.25;
    double min_shard_speedup = 0.0;
    // --jobs is accepted for uniformity; runs are serial. The telemetry
    // options (--timeline-out / --obs-attribution ...) let A/B overhead
    // runs of the same binary work: obs off is the tracked
    // configuration, obs on measures its own cost.
    parseJobsFlag(
        argc, argv,
        {opt::local("--repeats", &repeats,
                    "timed passes per basket, best kept (default 3)"),
         opt::local("--baseline", &baseline_path,
                    "BENCH_simperf.json to gate against"),
         opt::local("--max-regression", &max_regression,
                    "largest allowed drop vs the baseline (default 0.25)"),
         opt::local("--min-shard-speedup", &min_shard_speedup,
                    "smallest shards=4 over shards=1 speedup (default 0 = "
                    "no gate)")});

    printHeaderLine("Simulator throughput (warp-steps/sec of wall time)");

    const SystemConfig multi = presets::multiGpu4x4();

    // A fixed basket: the set must not drift PR-to-PR or the trajectory
    // breaks. Workloads chosen to cover regular streams, GEMM reuse and
    // irregular graphs without making the quick CI pass minutes long.
    std::vector<Basket> baskets;
    {
        Basket b;
        b.name = "interleaved";
        for (const char *w :
             {"VecAdd", "ScalarProd", "CONV", "SQ-GEMM"})
            b.cells.push_back(cell(w, Policy::BaselineRr, multi));
        baskets.push_back(std::move(b));
    }
    {
        Basket b;
        b.name = "lasp";
        for (const char *w :
             {"VecAdd", "SRAD", "SQ-GEMM", "LSTM-2", "PageRank"})
            b.cells.push_back(cell(w, Policy::Ladm, multi));
        baskets.push_back(std::move(b));
    }
    {
        Basket b;
        b.name = "first-touch";
        for (const char *w : {"VecAdd", "CONV", "BFS-relax"})
            b.cells.push_back(cell(w, Policy::BatchFt, multi));
        baskets.push_back(std::move(b));
    }

    std::printf("%-14s %6s %14s %16s %18s %10s\n", "basket", "runs",
                "warp-steps", "warp-steps/sec", "sector-acc/sec",
                "seconds");

    std::vector<BasketResult> results;
    BasketResult total;
    total.name = "total";
    for (const Basket &b : baskets) {
        const BasketResult r = runBasket(b, repeats);
        std::printf("%-14s %6llu %14llu %16.0f %18.0f %10.3f\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.runs),
                    static_cast<unsigned long long>(r.warpSteps),
                    r.wsps(), r.saps(), r.seconds);
        total.warpSteps += r.warpSteps;
        total.sectorAccesses += r.sectorAccesses;
        total.runs += r.runs;
        total.seconds += r.seconds;
        results.push_back(r);
    }
    std::printf("%-14s %6llu %14llu %16.0f %18.0f %10.3f\n", "total",
                static_cast<unsigned long long>(total.runs),
                static_cast<unsigned long long>(total.warpSteps),
                total.wsps(), total.saps(), total.seconds);

    // --- PDES basket: sharded vs serial event loop ----------------------
    // High-locality cells on the big topology: under Policy::Ladm nearly
    // every fetch is node-local, so the lanes stay busy between barriers
    // instead of funnelling remote ops through the serial phase.
    const unsigned host_cores = std::thread::hardware_concurrency();
    BasketResult shard_res[2];
    for (int pass = 0; pass < 2; ++pass) {
        SystemConfig cfg = multi;
        cfg.shards = pass == 0 ? 1 : 4;
        Basket b;
        b.name = pass == 0 ? "pdes/shards=1" : "pdes/shards=4";
        struct PdesCell { const char *w; double scale; };
        for (const PdesCell pc : {PdesCell{"VecAdd", 4.0},
                                  PdesCell{"ScalarProd", 4.0},
                                  PdesCell{"CONV", 1.0},
                                  PdesCell{"SRAD", 4.0}}) {
            core::SweepCell c = cell(pc.w, Policy::Ladm, cfg);
            c.scale *= pc.scale;
            b.cells.push_back(std::move(c));
        }
        shard_res[pass] = runBasket(b, repeats);
        const BasketResult &r = shard_res[pass];
        std::printf("%-14s %6llu %14llu %16.0f %18.0f %10.3f\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.runs),
                    static_cast<unsigned long long>(r.warpSteps),
                    r.wsps(), r.saps(), r.seconds);
    }
    // Conservation: the partitioned loop must execute exactly the same
    // work as the serial reference, whatever the wall-clock says.
    if (shard_res[0].warpSteps != shard_res[1].warpSteps ||
        shard_res[0].sectorAccesses != shard_res[1].sectorAccesses) {
        std::fprintf(stderr,
                     "[simperf] FAIL: sharded run lost work (%llu vs "
                     "%llu warp-steps)\n",
                     static_cast<unsigned long long>(
                         shard_res[1].warpSteps),
                     static_cast<unsigned long long>(
                         shard_res[0].warpSteps));
        return 1;
    }
    const double shard_speedup =
        safeRate(shard_res[1].wsps(), shard_res[0].wsps());
    std::printf("[simperf] pdes shards=4 vs shards=1: %.2fx "
                "(%u host cores)\n",
                shard_speedup, host_cores);

    {
        std::ofstream os("BENCH_simperf.json");
        if (os) {
            telemetry::JsonWriter w(os, 1);
            w.beginObject();
            w.kv("schema", "ladm-simperf-v1");
            w.kv("bench", "simperf");
            w.kv("scale", benchScale());
            w.kv("repeats", static_cast<double>(repeats));
            w.key("baskets");
            w.beginArray();
            for (const BasketResult &r : results) {
                w.beginObject();
                w.kv("name", r.name);
                w.kv("runs", static_cast<double>(r.runs));
                w.kv("warp_steps", static_cast<double>(r.warpSteps));
                w.kv("sector_accesses",
                     static_cast<double>(r.sectorAccesses));
                w.kv("seconds", r.seconds);
                w.kv("warp_steps_per_sec", r.wsps());
                w.kv("sector_accesses_per_sec", r.saps());
                w.endObject();
            }
            w.endArray();
            w.key("total");
            w.beginObject();
            w.kv("runs", static_cast<double>(total.runs));
            w.kv("warp_steps", static_cast<double>(total.warpSteps));
            w.kv("sector_accesses",
                 static_cast<double>(total.sectorAccesses));
            w.kv("seconds", total.seconds);
            w.kv("warp_steps_per_sec", total.wsps());
            w.kv("sector_accesses_per_sec", total.saps());
            w.endObject();
            // NOTE: placed after "total", and deliberately NOT using
            // the warp_steps_per_sec key: the --baseline gate takes the
            // file's LAST warp_steps_per_sec as the total.
            w.key("pdes");
            w.beginObject();
            w.kv("shards", 4.0);
            w.kv("host_cores", static_cast<double>(host_cores));
            w.kv("warp_steps",
                 static_cast<double>(shard_res[0].warpSteps));
            w.kv("shard1_seconds", shard_res[0].seconds);
            w.kv("shard4_seconds", shard_res[1].seconds);
            w.kv("shard1_wsps", shard_res[0].wsps());
            w.kv("shard4_wsps", shard_res[1].wsps());
            w.kv("speedup", shard_speedup);
            w.endObject();
            w.endObject();
            os << '\n';
            std::printf("[bench] wrote BENCH_simperf.json\n");
        }
    }

    if (min_shard_speedup > 0.0) {
        if (host_cores >= 4) {
            if (shard_speedup < min_shard_speedup) {
                std::fprintf(stderr,
                             "[simperf] FAIL: pdes speedup %.2fx below "
                             "the %.2fx floor\n",
                             shard_speedup, min_shard_speedup);
                return 1;
            }
        } else {
            // With fewer cores than shards the lanes time-slice one
            // CPU and a wall-clock win is physically impossible; the
            // conservation check above still ran.
            std::printf("[simperf] pdes speedup floor skipped: %u host "
                        "cores < 4\n",
                        host_cores);
        }
    }

    if (!baseline_path.empty()) {
        std::ifstream is(baseline_path);
        if (!is) {
            std::fprintf(stderr, "[simperf] no baseline at %s\n",
                         baseline_path.c_str());
            return 1;
        }
        std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
        // The "total" object is the last warp_steps_per_sec in the file.
        const size_t last =
            text.rfind("\"warp_steps_per_sec\":");
        const double base =
            last == std::string::npos
                ? -1.0
                : extractJsonNumber(text.substr(last),
                                    "warp_steps_per_sec");
        if (base <= 0.0) {
            std::fprintf(stderr,
                         "[simperf] baseline has no usable "
                         "warp_steps_per_sec\n");
            return 1;
        }
        const double ratio = safeRate(total.wsps(), base);
        std::printf("[simperf] %.0f vs baseline %.0f warp-steps/sec "
                    "(%.2fx)\n",
                    total.wsps(), base, ratio);
        if (ratio < 1.0 - max_regression) {
            std::fprintf(stderr,
                         "[simperf] FAIL: throughput regressed %.0f%% "
                         "(limit %.0f%%)\n",
                         (1.0 - ratio) * 100.0, max_regression * 100.0);
            return 1;
        }
    }
    return 0;
}

int
main(int argc, char **argv)
{
    // snapshot::runMain maps a graceful SIGINT/SIGTERM stop (checkpoint
    // flushed at the engine's safe point) to exit 75 and lets the
    // telemetry atexit finalizer publish partial sinks.
    return ladm::snapshot::runMain([&] { return benchMain(argc, argv); });
}
