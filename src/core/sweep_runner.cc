#include "core/sweep_runner.hh"

#include <atomic>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <thread>

#include "common/logging.hh"
#include "common/sim_error.hh"
#include "core/experiment.hh"
#include "core/sweep_journal.hh"
#include "telemetry/session.hh"
#include "workloads/registry.hh"

namespace ladm
{
namespace core
{

struct SweepRunner::Slot
{
    RunMetrics metrics;
    std::exception_ptr error;
};

int
SweepRunner::resolveJobs(int requested)
{
    int jobs = requested;
    if (jobs <= 0) {
        const char *s = std::getenv("LADM_BENCH_JOBS");
        if (s && *s)
            jobs = static_cast<int>(parsePositive("LADM_BENCH_JOBS", s,
                                                  /*whole=*/true));
    }
    if (jobs <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        jobs = hw ? static_cast<int>(hw) : 1;
    }

    const char *trace_env = std::getenv("LADM_TRACE_OUT");
    const bool tracing =
        telemetry::session().options().traceEnabled() ||
        (trace_env && *trace_env);
    if (tracing && jobs > 1) {
        ladm_inform("sweep: tracing is enabled; the trace emitter is "
                    "single-writer, forcing jobs=1 (requested ",
                    jobs, ")");
        jobs = 1;
    }
    return jobs;
}

SweepRunner::SweepRunner() : SweepRunner(Options()) {}

SweepRunner::SweepRunner(Options opts) : jobs_(resolveJobs(opts.jobs))
{
    if (jobs_ > 1)
        pool_ = std::make_unique<ThreadPool>(jobs_);
}

SweepRunner::~SweepRunner()
{
    // Joining before the slots vector dies keeps workers off freed
    // memory even when results() was never called.
    if (pool_)
        pool_->wait();
}

size_t
SweepRunner::submit(std::function<RunMetrics()> job)
{
    const size_t index = slots_.size();
    auto slot = std::make_shared<Slot>();
    slots_.push_back(slot);

    auto task = [slot = std::move(slot), job = std::move(job)] {
        try {
            slot->metrics = job();
        } catch (...) {
            slot->error = std::current_exception();
        }
    };
    if (pool_)
        pool_->submit(std::move(task));
    else
        task();
    return index;
}

std::vector<RunMetrics>
SweepRunner::results()
{
    if (pool_)
        pool_->wait();

    for (const auto &slot : slots_) {
        if (slot->error)
            std::rethrow_exception(slot->error);
    }
    std::vector<RunMetrics> out;
    out.reserve(slots_.size());
    for (const auto &slot : slots_)
        out.push_back(std::move(slot->metrics));
    slots_.clear();
    return out;
}

std::vector<RunMetrics>
SweepRunner::outcomes()
{
    if (pool_)
        pool_->wait();

    std::vector<RunMetrics> out;
    out.reserve(slots_.size());
    for (const auto &slot : slots_) {
        if (slot->error) {
            try {
                std::rethrow_exception(slot->error);
            } catch (const std::exception &e) {
                // SimError's what() is already the one-line report.
                slot->metrics.error = e.what();
            } catch (...) {
                slot->metrics.error = "unknown error";
            }
        }
        out.push_back(std::move(slot->metrics));
    }
    slots_.clear();
    return out;
}

std::vector<RunMetrics>
runSweep(const std::vector<SweepCell> &cells, int jobs, bool keep_going)
{
    SweepJournal *jnl = sweepJournal();
    const bool replay =
        jnl && !telemetry::session().options().anySink();
    std::atomic<size_t> hits{0};
    SweepRunner runner({jobs});
    for (const SweepCell &cell : cells) {
        const uint64_t key = jnl ? cellKey(cell) : 0;
        runner.submit([&cell, &hits, jnl, replay, key] {
            if (replay) {
                if (const RunMetrics *m = jnl->completed(key)) {
                    ++hits;
                    return *m;
                }
            }
            auto w = workloads::makeWorkload(cell.workload, cell.scale);
            auto bundle = makeBundle(cell.policy);
            RunMetrics m =
                runExperiment(*w, *bundle, cell.cfg, cell.launches);
            if (jnl)
                jnl->noteDone(key, m);
            return m;
        });
    }
    std::vector<RunMetrics> out =
        keep_going ? runner.outcomes() : runner.results();
    if (jnl) {
        std::fprintf(stderr, "sweep journal: %zu of %zu cell(s) replayed\n",
                     hits.load(), cells.size());
    }
    for (size_t i = 0; i < out.size(); ++i) {
        // A failed cell's runExperiment never got to stamp the labels.
        if (out[i].failed()) {
            out[i].workload = cells[i].workload;
            out[i].system = cells[i].cfg.name;
        }
    }
    return out;
}

double
parsePositive(const std::string &source, const std::string &text,
              bool whole)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    const bool ok = !text.empty() && *end == '\0' && std::isfinite(v) &&
                    v > 0.0 &&
                    (!whole || (v == std::floor(v) && v <= INT_MAX));
    if (!ok) {
        const char *want =
            whole ? "must be a whole number > 0" : "must be a number > 0";
        throw SimError(SimError::Kind::Config,
                       source + " " + want + ", got '" + text + "'",
                       {{source, text, want,
                         "give a positive value, or drop it",
                         ErrCode::BadConfig}});
    }
    return v;
}

} // namespace core
} // namespace ladm
