/**
 * @file
 * Shared declarations of the benchmark runner program. It runs one
 * workload and writes raw measurements (per-operation times, digests of
 * simulated statistics, serve outcomes, spans) for run.py, which turns
 * them into metrics.
 */

#ifndef PERFBENCH_RUNNER_HH
#define PERFBENCH_RUNNER_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>

#include <sched.h>
#include <sys/resource.h>

#include "spans.hh"
#include "telemetry/json_writer.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * getrusage max RSS of the process so far, in KiB. Workloads read it
 * after their first pass: the program's own memory has peaked by then,
 * while the run's records, which grow with every later pass, are still
 * small and the same size in every run.
 */
inline int64_t
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    /** Measured duration; whole passes run until it is reached (>= 1). */
    double seconds = 10.0;
    bool trace = false;
};

/** The cores the process may run on, as the first call found them. */
inline const cpu_set_t &
startCores()
{
    static const cpu_set_t cores = [] {
        cpu_set_t s;
        CPU_ZERO(&s);
        sched_getaffinity(0, sizeof s, &s);
        return s;
    }();
    return cores;
}

/** Let the calling thread run on every core again (undo an inherited pin). */
inline void
unpinThread()
{
    sched_setaffinity(0, sizeof(cpu_set_t), &startCores());
}

/**
 * Pins the calling thread, and every thread it starts while pinned, to
 * the last of startCores(); the destructor unpins it. On a shared host
 * this keeps the workload's caches warm across the run, and keeps a
 * request's hand-offs between client and server threads on one core
 * instead of measuring how fast the host wakes an idle one.
 */
class OneCore
{
  public:
    OneCore()
    {
        int last = -1;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &startCores()))
                last = c;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(last, &one);
        pinned_ = last >= 0 && sched_setaffinity(0, sizeof one, &one) == 0;
    }
    ~OneCore()
    {
        if (pinned_)
            unpinThread();
    }
    OneCore(const OneCore &) = delete;
    OneCore &operator=(const OneCore &) = delete;

  private:
    bool pinned_ = false;
};

/** Add a span recorder whose stream id is unique within the run. */
inline SpanRecorder &
newRecorder(std::deque<SpanRecorder> &spans, const char *section)
{
    const int stream = static_cast<int>(spans.size());
    return spans.emplace_back(section, stream);
}

/** grid_small, sim_remote or sim_local. */
bool isSimWorkload(const std::string &name);

/**
 * Run a sim workload and write its "main" section. Traced runs record
 * one span recorder's worth of spans into @p spans.
 */
void runSimWorkload(const RunOptions &opts, ladm::telemetry::JsonWriter &w,
                    std::deque<SpanRecorder> &spans);

/** One traced cell on the sharded engine, written as a "probe" section. */
void runSimProbe(ladm::telemetry::JsonWriter &w,
                 std::deque<SpanRecorder> &spans);

/** Run serve_mix and write its "main" section. */
void runServeMix(const RunOptions &opts, ladm::telemetry::JsonWriter &w,
                 std::deque<SpanRecorder> &spans);

/** A short fixed serve session, traced, written as a "probe" section. */
void runServeProbe(const RunOptions &opts, ladm::telemetry::JsonWriter &w,
                   std::deque<SpanRecorder> &spans);

} // namespace perfbench

#endif // PERFBENCH_RUNNER_HH
