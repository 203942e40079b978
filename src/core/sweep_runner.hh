/**
 * @file
 * SweepRunner: thread-pool executor for grids of independent
 * experiments.
 *
 * Every figure harness replays a large (workload, policy, system) grid
 * whose cells share nothing -- each runExperiment() builds its own
 * GpuSystem, MallocRegistry, and workload -- so the sweep parallelizes
 * trivially. The runner fans submitted jobs across a pool of worker
 * threads and hands results back in *submission order*, so callers keep
 * their serial print/sink loops untouched.
 *
 * Determinism contract: a job must construct everything it touches
 * (workload, policy bundle, system) inside the closure. Workload RNGs
 * are seeded at construction, so a job produces bitwise-identical
 * RunMetrics no matter which worker runs it or when; parallel and
 * serial sweeps therefore emit identical rows.
 *
 * Concurrency contract of the shared substrate:
 *  - telemetry::Session::recordRun() and PhaseProfiler::add() are
 *    mutex-guarded; each job runs under a session ticket taken at
 *    submission, so the stats and timeline sinks list runs in
 *    submission order at any worker count.
 *  - The Chrome tracer is single-writer: resolveJobs() forces jobs = 1
 *    with a logged notice whenever tracing is armed.
 *  - Everything else an experiment touches is constructed per run.
 */

#ifndef LADM_CORE_SWEEP_RUNNER_HH
#define LADM_CORE_SWEEP_RUNNER_HH

#include <functional>
#include <memory>
#include <vector>

#include "common/thread_pool.hh"
#include "config/system_config.hh"
#include "core/metrics.hh"
#include "core/policy_bundle.hh"

namespace ladm
{
namespace core
{

/** One (workload, policy, system) cell of an experiment grid. */
struct SweepCell
{
    std::string workload; ///< Table IV name (workloads::makeWorkload)
    Policy policy = Policy::Ladm;
    SystemConfig cfg;
    int launches = 1;
    double scale = 1.0;   ///< workload linear-size scale
};

class SweepRunner
{
  public:
    struct Options
    {
        /**
         * Worker count; <= 0 resolves via --jobs / LADM_BENCH_JOBS, then
         * hardware concurrency. Tracing always forces 1.
         */
        int jobs = 0;
    };

    /** Default options: resolve jobs from the option table. */
    SweepRunner();
    explicit SweepRunner(Options opts);
    ~SweepRunner();

    SweepRunner(const SweepRunner &) = delete;
    SweepRunner &operator=(const SweepRunner &) = delete;

    /**
     * Enqueue @p job (run inline when jobs == 1). The closure must
     * construct its own workload/bundle/system -- see the determinism
     * contract above.
     *
     * @return the job's index, which is also its slot in results().
     */
    size_t submit(std::function<RunMetrics()> job);

    /**
     * Barrier: wait for every submitted job and return their metrics in
     * submission order. If any job threw, rethrows the exception of the
     * earliest-submitted failing job (after all jobs finished, so no
     * worker is left touching freed state).
     */
    std::vector<RunMetrics> results();

    /**
     * Barrier like results(), but never throws for a failed job: the
     * slot's RunMetrics carries the failure in its `error` field (a
     * SimError's one-line report, or the exception's what()) so a sweep
     * records a bad grid point as one error row and keeps going
     * (--continue-on-error).
     */
    std::vector<RunMetrics> outcomes();

    /** Resolved worker count. */
    int jobs() const { return jobs_; }

    /**
     * Apply the knob hierarchy: explicit @p requested if > 0, else
     * --jobs / LADM_BENCH_JOBS, else std::thread::hardware_concurrency().
     * A value that is not a whole number > 0 raises SimError. Tracing
     * (an armed telemetry session or --trace-out / LADM_TRACE_OUT) forces the
     * result to 1 with a logged notice, keeping the global trace
     * emitter single-writer.
     */
    static int resolveJobs(int requested);

  private:
    struct Slot;

    int jobs_;
    std::unique_ptr<ThreadPool> pool_; ///< null when jobs_ == 1
    std::vector<std::shared_ptr<Slot>> slots_;
};

/**
 * Run every @p cells entry (constructing workload and bundle inside the
 * job) across @p jobs workers and return metrics in cell order.
 *
 * With a sweep journal armed (core/sweep_journal.hh), a cell the journal
 * holds returns its recorded metrics without simulating, and every
 * simulated cell is journaled. A journal hit would skip the records the
 * telemetry sinks get from a run, so while any sink is armed every cell
 * simulates (and still journals). The grid ends with one stderr line,
 * "sweep journal: H of N cell(s) replayed".
 *
 * @param keep_going like SweepRunner::outcomes(): a failed cell becomes
 *        a row carrying its error, labelled with the cell's workload and
 *        system, instead of rethrowing (--continue-on-error)
 */
std::vector<RunMetrics> runSweep(const std::vector<SweepCell> &cells,
                                 int jobs = 0, bool keep_going = false);

} // namespace core
} // namespace ladm

#endif // LADM_CORE_SWEEP_RUNNER_HH
