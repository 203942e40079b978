#include "core/sweep_runner.hh"

#include <atomic>
#include <cstdio>
#include <exception>
#include <thread>

#include "common/logging.hh"
#include "config/options.hh"
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
    int jobs = requested > 0
                   ? requested
                   : static_cast<int>(opt::whole(opt::kJobs, 0));
    if (jobs <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        jobs = hw ? static_cast<int>(hw) : 1;
    }

    const bool tracing = telemetry::session().options().traceEnabled() ||
                         !opt::str(opt::kTraceOut).empty();
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

    // The job's records land in the sinks at its submission position,
    // not where it happens to finish.
    const uint64_t ticket = telemetry::session().takeTicket();
    auto task = [slot = std::move(slot), job = std::move(job), ticket] {
        telemetry::Session::TicketScope scope(ticket);
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

} // namespace core
} // namespace ladm
