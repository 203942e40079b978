#include "telemetry/session.hh"

#include <algorithm>
#include <functional>
#include <iostream>

#include "common/atomic_file.hh"
#include "common/logging.hh"
#include "config/options.hh"
#include "telemetry/exporters.hh"
#include "telemetry/json_writer.hh"

namespace ladm
{
namespace telemetry
{

PhaseProfiler &
profiler()
{
    return Session::instance().phaseProfiler();
}

void
PhaseProfiler::report(std::ostream &os) const
{
    os << "--- host phase profile ---\n";
    for (const auto &[name, p] : phases_) {
        os << "  " << name << ": " << p.seconds << " s over " << p.calls
           << " calls (" << (p.calls ? 1e3 * p.seconds / p.calls : 0.0)
           << " ms/call)\n";
    }
}

Session &
Session::instance()
{
    static Session s;
    return s;
}

Session &
session()
{
    return Session::instance();
}

void
Session::configure(const TelemetryOptions &opts)
{
    opts_ = opts;
    finalized_ = false;
    if (opts.anySink() && !atexitRegistered_) {
        atexitRegistered_ = true;
        std::atexit([] { Session::instance().finalize(); });
    }
}

namespace
{

constexpr uint64_t kNoTicket = ~uint64_t{0};
thread_local uint64_t tlsTicket = kNoTicket;

} // namespace

Session::TicketScope::TicketScope(uint64_t ticket) : prev_(tlsTicket)
{
    tlsTicket = ticket;
}

Session::TicketScope::~TicketScope() { tlsTicket = prev_; }

uint64_t
Session::currentTicket()
{
    return tlsTicket != kNoTicket ? tlsTicket : takeTicket();
}

template <class T>
void
Session::record(std::vector<T> &vals, std::vector<uint64_t> &tickets, T v)
{
    const uint64_t ticket = currentTicket();
    std::lock_guard<std::mutex> lk(runsMu_);
    // After equal tickets: a job's records keep their own order.
    const auto at = std::upper_bound(tickets.begin(), tickets.end(), ticket);
    vals.insert(vals.begin() + (at - tickets.begin()), std::move(v));
    tickets.insert(at, ticket);
}

void
Session::recordRun(RunRecord rec)
{
    if (statsActive())
        record(runs_, runTickets_, std::move(rec));
}

void
Session::recordObservation(obs::RunObservation o)
{
    if (opts_.timelineEnabled())
        record(observations_, obsTickets_, std::move(o));
}

void
Session::recordTrace(TraceEmitter tr)
{
    if (!opts_.traceEnabled())
        return;
    record(traces_, traceTickets_, std::move(tr));
    // Past the cap in ticket order the merge drops every span whatever
    // runs still arrive, so those are dropped now.
    std::lock_guard<std::mutex> lk(runsMu_);
    size_t before = 0;
    for (TraceEmitter &t : traces_)
        before += t.keepFirst(opts_.traceMaxEvents - before);
}

void
Session::writeStatsJson(std::ostream &os) const
{
    JsonWriter jw(os);
    jw.beginObject();
    jw.kv("schema", kStatsSchema);
    jw.kv("generator", "ladm");
    jw.key("runs").beginArray();
    for (const RunRecord &r : runs_) {
        jw.beginObject();
        jw.kv("workload", r.workload);
        jw.kv("policy", r.policy);
        jw.kv("system", r.system);
        jw.kv("scheduler", r.scheduler);
        jw.kv("cycles", static_cast<uint64_t>(r.cycles));
        jw.kv("tb_count", r.tbCount);
        jw.key("kernels").beginArray();
        for (const KernelRecord &k : r.kernels) {
            jw.beginObject();
            jw.kv("index", k.index);
            jw.kv("start_cycle", static_cast<uint64_t>(k.startCycle));
            jw.kv("end_cycle", static_cast<uint64_t>(k.endCycle));
            jw.key("stats");
            exportJsonObject(jw, k.stats);
            jw.endObject();
        }
        jw.endArray();
        jw.key("final");
        exportJsonObject(jw, r.final);
        jw.endObject();
    }
    jw.endArray();
    jw.key("profile").beginObject();
    for (const auto &[name, p] : profiler_.phases()) {
        jw.key(name).beginObject();
        jw.kv("seconds", p.seconds);
        jw.kv("calls", p.calls);
        jw.endObject();
    }
    jw.endObject();
    jw.endObject();
    os << "\n";
}

namespace
{

/**
 * Publish one sink: "-" streams to stdout, anything else goes through
 * the shared write-temp/fsync/rename path (common/atomic_file.hh) so a
 * kill mid-finalize leaves either the previous complete file or the new
 * complete file -- never a torn prefix a downstream parser chokes on.
 * atomicWriteFile warns (path + errno) on failure.
 */
void
writeSink(const std::string &path,
          const std::function<void(std::ostream &)> &fill)
{
    if (path == "-") {
        fill(std::cout);
        return;
    }
    atomicWriteFile(path, fill);
}

} // namespace

void
Session::finalize()
{
    if (finalized_)
        return;
    finalized_ = true;

    if (!opts_.statsJsonPath.empty()) {
        writeSink(opts_.statsJsonPath,
                  [this](std::ostream &os) { writeStatsJson(os); });
    }
    if (!opts_.statsCsvPath.empty()) {
        writeSink(opts_.statsCsvPath, [this](std::ostream &os) {
            os << "run,workload,policy,path,kind,value\n";
            for (size_t i = 0; i < runs_.size(); ++i) {
                const RunRecord &r = runs_[i];
                for (const auto &[path, s] : r.final.values) {
                    os << i << ',' << r.workload << ',' << r.policy
                       << ',' << path << ',' << toString(s.kind) << ','
                       << s.value << "\n";
                }
            }
        });
    }
    if (!opts_.statsTextPath.empty()) {
        writeSink(opts_.statsTextPath, [this](std::ostream &os) {
            for (const RunRecord &r : runs_) {
                os << "=== " << r.workload << " / " << r.policy << " / "
                   << r.system << " (" << r.cycles << " cycles) ===\n";
                exportText(os, r.final);
            }
            if (!profiler_.empty())
                profiler_.report(os);
        });
    }
    if (opts_.timelineEnabled()) {
        writeSink(opts_.timelineOutPath, [this](std::ostream &os) {
            obs::writeObservationsJson(os, observations_);
        });
        // A flat CSV of the windows lands alongside the JSON (plotting
        // tools want columns, not nested documents). Stdout gets JSON
        // only.
        if (opts_.timelineOutPath != "-") {
            std::string csv_path = opts_.timelineOutPath;
            const std::string suffix = ".json";
            if (csv_path.size() > suffix.size() &&
                csv_path.compare(csv_path.size() - suffix.size(),
                                 suffix.size(), suffix) == 0) {
                csv_path.resize(csv_path.size() - suffix.size());
            }
            csv_path += ".csv";
            writeSink(csv_path, [this](std::ostream &os) {
                obs::writeObservationsCsv(os, observations_);
            });
        }
    }
    if (opts_.traceEnabled()) {
        size_t dropped = 0;
        writeSink(opts_.traceOutPath, [&](std::ostream &os) {
            dropped = writeTrace(os, traces_, opts_.traceMaxEvents);
        });
        if (dropped > 0) {
            // One line, with the knobs to turn: a silently truncated
            // timeline is worse than a noisy one.
            ladm_warn("telemetry: trace dropped ", dropped,
                      " events past the cap; raise --trace-max-events"
                      " (currently ",
                      opts_.traceMaxEvents,
                      ") or thin harder with --trace-sample"
                      " (currently 1-in-",
                      opts_.traceSampleEvery, ")");
        }
    }
    if (opt::on(opt::kProfile) && !profiler_.empty())
        profiler_.report(std::cerr);
}

void
Session::resetForTest()
{
    opts_ = TelemetryOptions{};
    {
        std::lock_guard<std::mutex> lk(runsMu_);
        runs_.clear();
        runTickets_.clear();
        observations_.clear();
        obsTickets_.clear();
        traces_.clear();
        traceTickets_.clear();
    }
    profiler_.clear();
    finalized_ = false;
}

} // namespace telemetry
} // namespace ladm
