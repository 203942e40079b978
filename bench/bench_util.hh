/**
 * @file
 * Shared helpers for the figure/table regeneration harnesses.
 *
 * Every binary in bench/ regenerates one table or figure of the paper:
 * it runs the relevant (workload, policy, system) grid and prints the
 * same rows/series the paper reports. Absolute numbers differ from the
 * paper (cycle-approximate model, scaled inputs); the shapes are the
 * reproduction target (see EXPERIMENTS.md).
 *
 * Every bench takes the shared options of config/options.hh (workload
 * scale, --jobs worker count, telemetry sinks, --check, checkpointing,
 * --resume-sweep ...); `--help` lists them and README.md tables them.
 * Results, printed rows, and the CSV/JSON sinks are identical at any
 * worker count; tracing forces one worker.
 */

#ifndef LADM_BENCH_BENCH_UTIL_HH
#define LADM_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/atomic_file.hh"
#include "config/options.hh"
#include "config/presets.hh"
#include "core/experiment.hh"
#include "core/sweep_runner.hh"
#include "snapshot/snapshot.hh"
#include "telemetry/json_writer.hh"
#include "telemetry/session.hh"
#include "workloads/registry.hh"

namespace ladm
{
namespace bench
{

/** --bench-scale / LADM_BENCH_SCALE, 1.0 when unset. */
inline double
benchScale()
{
    return opt::number(opt::kBenchScale, 1.0);
}

/**
 * Parse a bench's command line: the shared options a simulator bench
 * honours plus the bench's own @p local ones (config/options.hh), then
 * configure the telemetry session from them.
 *
 * @return the --jobs / LADM_BENCH_JOBS worker count, 0 when unset (=
 *         hardware concurrency).
 */
inline int
parseJobsFlag(int &argc, char **argv,
              const std::vector<opt::Option> &local = {})
{
    opt::parse(argc, argv,
               opt::Simulator | opt::Telemetry | opt::Sweep | opt::Bench,
               local);
    telemetry::session().configure(TelemetryOptions::resolve());
    return static_cast<int>(opt::whole(opt::kJobs, 0));
}

/** One grid cell at the bench scale (SweepCell factory). */
inline core::SweepCell
cell(std::string workload, Policy policy, SystemConfig cfg,
     int launches = 1)
{
    core::SweepCell c;
    c.workload = std::move(workload);
    c.policy = policy;
    c.cfg = std::move(cfg);
    c.launches = launches;
    c.scale = benchScale();
    return c;
}

/**
 * Run a grid of cells across @p jobs workers (0 = env/hardware) through
 * core::runSweep, with results back in cell order so the caller's
 * print/sink loops see the serial sequence. The worker notice goes to
 * stderr: stdout rows and the sinks stay byte-identical at any worker
 * count. Under --continue-on-error a failed cell is reported on stderr
 * and comes back as an error row.
 */
inline std::vector<RunMetrics>
runGrid(const std::vector<core::SweepCell> &cells, int jobs = 0)
{
    jobs = core::SweepRunner::resolveJobs(jobs);
    if (jobs > 1) {
        std::fprintf(stderr, "[bench] %zu runs across %d workers\n",
                     cells.size(), jobs);
    }
    std::vector<RunMetrics> out =
        core::runSweep(cells, jobs, opt::on(opt::kBenchContinue));
    for (size_t i = 0; i < out.size(); ++i) {
        if (out[i].failed()) {
            std::fprintf(stderr, "[bench] cell %zu (%s on %s) failed: %s\n",
                         i, out[i].workload.c_str(), out[i].system.c_str(),
                         out[i].error.c_str());
        }
    }
    return out;
}

// Cross-workload aggregation uses the NaN-safe ladm::geomean / ladm::mean
// from core/metrics.hh (previously a private copy lived here).

/**
 * Guarded rate: @p count events over @p seconds of wall time, as a
 * finite events-per-second figure. A grid point that runs zero warp
 * steps (an empty workload at a tiny LADM_BENCH_SCALE) or completes
 * under the clock's resolution must report 0, not NaN/inf -- a non-finite
 * rate poisons every downstream aggregate and the JSON sinks.
 */
inline double
safeRate(double count, double seconds)
{
    if (!(seconds > 0.0) || !std::isfinite(seconds) ||
        !std::isfinite(count) || count <= 0.0)
        return 0.0;
    const double rate = count / seconds;
    return std::isfinite(rate) ? rate : 0.0;
}

/** The locality-class section labels of Figs. 9/10, in Table IV order. */
inline const std::vector<std::pair<std::string, std::vector<std::string>>> &
workloadSections()
{
    static const std::vector<std::pair<std::string, std::vector<std::string>>>
        sections = {
            {"NL",
             {"VecAdd", "SRAD", "HS", "ScalarProd", "BLK", "Histo-final",
              "Reduction-k6", "Hotspot3D"}},
            {"RCL",
             {"CONV", "Histo-main", "FWT-k2", "SQ-GEMM", "Alexnet-FC-2",
              "VGGnet-FC-2", "Resnet-50-FC", "LSTM-1", "LSTM-2", "TRA"}},
            {"ITL",
             {"PageRank", "BFS-relax", "SSSP", "Random-loc",
              "Kmeans-noTex", "SpMV-jds"}},
            {"Unclassified", {"B+tree", "LBM", "StreamCluster"}},
        };
    return sections;
}

/** A faster subset used by the bandwidth-sensitivity sweep. */
inline std::vector<std::string>
representativeWorkloads()
{
    return {"VecAdd",  "SRAD",    "ScalarProd", "CONV",     "SQ-GEMM",
            "FWT-k2",  "LSTM-2",  "PageRank",   "Kmeans-noTex",
            "B+tree"};
}

/**
 * Optional machine-readable sink: when --bench-csv / LADM_BENCH_CSV
 * names a directory, every run() result is appended to <dir>/<bench>.csv.
 */
class CsvSink
{
  public:
    explicit CsvSink(const std::string &bench_name)
    {
        const std::string dir = opt::str(opt::kBenchCsv);
        if (dir.empty())
            return;
        path_ = dir + "/" + bench_name + ".csv";
        body_ = csvHeader() + "\n";
        if (!atomicWriteBytes(path_, body_))
            path_.clear();
    }

    /**
     * Republish the whole file after every run (atomic replace, not
     * append): a kill between runs leaves a complete, parseable CSV of
     * the rows so far instead of a torn final line.
     */
    void
    add(const RunMetrics &m)
    {
        if (path_.empty())
            return;
        body_ += csvRow(m) + "\n";
        atomicWriteBytes(path_, body_);
    }

  private:
    std::string path_;
    std::string body_;
};

/**
 * Machine-readable bench results: collects every run() result and writes
 * BENCH_<bench>.json in the working directory at destruction. Always on
 * (the file is the bench's canonical machine-readable output); the
 * document is "ladm-bench-v1" with one entry per run including the
 * per-node local/remote fetch breakdown.
 */
class BenchJsonSink
{
  public:
    explicit BenchJsonSink(std::string bench_name)
        : bench_(std::move(bench_name))
    {
    }

    BenchJsonSink(const BenchJsonSink &) = delete;
    BenchJsonSink &operator=(const BenchJsonSink &) = delete;

    void add(const RunMetrics &m) { runs_.push_back(m); }

    ~BenchJsonSink() { write(); }

    void
    write()
    {
        if (written_)
            return;
        written_ = true;
        const std::string path = "BENCH_" + bench_ + ".json";
        // Build in memory, publish atomically: downstream parsers (CI
        // gates, ladm-report) never see a torn document.
        std::ostringstream os;
        telemetry::JsonWriter w(os, 1);
        w.beginObject();
        w.kv("schema", "ladm-bench-v1");
        w.kv("bench", bench_);
        w.kv("scale", benchScale());
        w.key("runs");
        w.beginArray();
        uint64_t total_cycles = 0, total_local = 0, total_remote = 0;
        uint64_t failed_runs = 0;
        for (const RunMetrics &m : runs_) {
            total_cycles += m.cycles;
            total_local += m.fetchLocal;
            total_remote += m.fetchRemote;
            if (m.failed())
                ++failed_runs;
            w.beginObject();
            w.kv("workload", m.workload);
            w.kv("policy", m.policy);
            w.kv("system", m.system);
            w.kv("scheduler", m.scheduler);
            w.kv("insert_policy", toString(m.insertPolicy));
            w.kv("cycles", static_cast<double>(m.cycles));
            w.kv("tb_count", static_cast<double>(m.tbCount));
            w.kv("sector_accesses",
                 static_cast<double>(m.sectorAccesses));
            w.kv("fetch_local", static_cast<double>(m.fetchLocal));
            w.kv("fetch_remote", static_cast<double>(m.fetchRemote));
            w.key("node_fetch_local");
            w.beginArray();
            for (const uint64_t v : m.nodeFetchLocal)
                w.value(static_cast<double>(v));
            w.endArray();
            w.key("node_fetch_remote");
            w.beginArray();
            for (const uint64_t v : m.nodeFetchRemote)
                w.value(static_cast<double>(v));
            w.endArray();
            w.kv("off_chip_pct", m.offChipPct);
            w.kv("inter_node_bytes",
                 static_cast<double>(m.interNodeBytes));
            w.kv("inter_gpu_bytes",
                 static_cast<double>(m.interGpuBytes));
            w.kv("l1_hit_rate", m.l1HitRate);
            w.kv("l2_hit_rate", m.l2HitRate);
            w.kv("l2_mpki", m.l2Mpki);
            if (m.rehomedPages || m.failedNodeAccesses) {
                w.kv("rehomed_pages",
                     static_cast<double>(m.rehomedPages));
                w.kv("failed_node_accesses",
                     static_cast<double>(m.failedNodeAccesses));
            }
            if (m.hasLatency) {
                w.key("latency");
                w.beginObject();
                for (size_t c = 0; c < obs::kNumLatComponents; ++c) {
                    const obs::LatSummary &s = m.latency[c];
                    if (s.samples == 0)
                        continue;
                    w.key(toString(static_cast<obs::LatComponent>(c)));
                    w.beginObject();
                    w.kv("samples", static_cast<double>(s.samples));
                    w.kv("mean", s.mean);
                    w.kv("p50", s.p50);
                    w.kv("p95", s.p95);
                    w.kv("p99", s.p99);
                    w.kv("max", s.max);
                    w.endObject();
                }
                w.endObject();
            }
            if (m.failed())
                w.kv("error", m.error);
            w.endObject();
        }
        w.endArray();
        w.key("summary");
        w.beginObject();
        w.kv("num_runs", static_cast<double>(runs_.size()));
        w.kv("failed_runs", static_cast<double>(failed_runs));
        w.kv("total_cycles", static_cast<double>(total_cycles));
        w.kv("total_fetch_local", static_cast<double>(total_local));
        w.kv("total_fetch_remote", static_cast<double>(total_remote));
        w.endObject();
        w.endObject();
        os << '\n';
        if (!atomicWriteBytes(path, os.str()))
            return;
        std::printf("[bench] wrote %s (%zu runs)\n", path.c_str(),
                    runs_.size());
    }

  private:
    std::string bench_;
    std::vector<RunMetrics> runs_;
    bool written_ = false;
};

inline void
printHeaderLine(const std::string &title)
{
    std::printf("%s\n", std::string(78, '=').c_str());
    std::printf("%s\n", title.c_str());
    std::printf("%s\n", std::string(78, '=').c_str());
}

} // namespace bench
} // namespace ladm

#endif // LADM_BENCH_BENCH_UTIL_HH
