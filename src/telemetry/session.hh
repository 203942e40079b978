/**
 * @file
 * Telemetry session: process-wide collection point tying the pieces
 * together. Examples and tools configure it once (from CLI flags or
 * LADM_* environment variables); runExperiment() contributes one
 * RunRecord per run (final stat snapshot + per-kernel deltas); finalize()
 * writes every selected sink -- versioned stats JSON, CSV, pretty text,
 * and the Chrome trace. With no sink configured the session is inert and
 * records nothing.
 */

#ifndef LADM_TELEMETRY_SESSION_HH
#define LADM_TELEMETRY_SESSION_HH

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hh"
#include "config/system_config.hh"
#include "obs/observer.hh"
#include "telemetry/profile.hh"
#include "telemetry/stat_registry.hh"
#include "telemetry/trace.hh"

namespace ladm
{
namespace telemetry
{

/** Stat window of one kernel launch (delta across the launch). */
struct KernelRecord
{
    int index = 0;
    Cycles startCycle = 0;
    Cycles endCycle = 0;
    Snapshot stats;

    /** Checkpoint support (snapshot/component_state.cc). */
    template <class Ar> void io(Ar &ar);
};

/** Everything the stats sinks report about one experiment run. */
struct RunRecord
{
    std::string workload;
    std::string policy;
    std::string system;
    std::string scheduler;
    Cycles cycles = 0;
    uint64_t tbCount = 0;
    std::vector<KernelRecord> kernels;
    Snapshot final;
};

/**
 * Thread-safety contract (the sweep runner fans runExperiment() across
 * worker threads): recordRun() and numRuns() are mutex-guarded and may
 * be called concurrently. Runs and observations are kept in ticket
 * order: SweepRunner takes a ticket per job as it is submitted and runs
 * the job under it (TicketScope), so the sinks list runs in submission
 * order at any worker count. The phase profiler is likewise
 * safe (see profile.hh). Everything else -- configure(), finalize(),
 * resetForTest(), writeStatsJson() -- must run with no experiment in
 * flight (before a sweep starts or after it joins). The trace emitter
 * is single-writer: SweepRunner::resolveJobs() forces serial execution
 * whenever tracing is armed.
 */
class Session
{
  public:
    static Session &instance();

    /**
     * Select sinks; arms the tracer when a trace path is set and
     * registers an atexit finalize so sinks are written even if the tool
     * never calls finalize() itself.
     */
    void configure(const TelemetryOptions &opts);

    const TelemetryOptions &options() const { return opts_; }
    /** True when any stats sink wants per-run records. */
    bool statsActive() const { return opts_.anyStatsSink(); }

    TraceEmitter &traceEmitter() { return tracer_; }
    PhaseProfiler &phaseProfiler() { return profiler_; }

    /**
     * The sink position of a job about to be submitted: tickets rise in
     * the order they are taken. A run recorded outside a TicketScope
     * takes a fresh one as it is recorded.
     */
    uint64_t takeTicket() { return nextTicket_.fetch_add(1); }

    /** Records made on this thread while alive carry @p ticket. */
    class TicketScope
    {
      public:
        explicit TicketScope(uint64_t ticket);
        ~TicketScope();
        TicketScope(const TicketScope &) = delete;
        TicketScope &operator=(const TicketScope &) = delete;

      private:
        uint64_t prev_;
    };

    /**
     * Insert one run's record at its ticket's position; safe to call
     * from sweep workers.
     */
    void recordRun(RunRecord rec);
    size_t
    numRuns() const
    {
        std::lock_guard<std::mutex> lk(runsMu_);
        return runs_.size();
    }

    /**
     * Append one run's observability collection (timeline windows,
     * latency summaries, heatmaps); same thread-safety contract as
     * recordRun(). No-op unless the timeline sink is armed.
     */
    void recordObservation(obs::RunObservation o);
    std::vector<obs::RunObservation>
    observations() const
    {
        std::lock_guard<std::mutex> lk(runsMu_);
        return observations_;
    }

    /** Write every configured sink; idempotent until reconfigured. */
    void finalize();

    /** Drop all state (tests only). */
    void resetForTest();

    /** Render the stats document for the configured runs (JSON sink). */
    void writeStatsJson(std::ostream &os) const;

  private:
    Session() = default;

    TelemetryOptions opts_;
    TraceEmitter tracer_;
    PhaseProfiler profiler_;
    /** This thread's TicketScope ticket, or a fresh one. */
    uint64_t currentTicket();

    std::atomic<uint64_t> nextTicket_{0};
    /** Guards the four vectors below against concurrent sweep workers. */
    mutable std::mutex runsMu_;
    std::vector<RunRecord> runs_;            ///< in ticket order
    std::vector<uint64_t> runTickets_;       ///< ticket of each run
    std::vector<obs::RunObservation> observations_; ///< in ticket order
    std::vector<uint64_t> obsTickets_;       ///< ticket of each one
    bool finalized_ = false;
    bool atexitRegistered_ = false;
};

/** Shorthand for Session::instance(). */
Session &session();

} // namespace telemetry
} // namespace ladm

#endif // LADM_TELEMETRY_SESSION_HH
