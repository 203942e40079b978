/**
 * @file
 * Chrome trace-event emitter (chrome://tracing / Perfetto JSON format).
 *
 * The simulator records TB dispatch/retire spans per SM, long warp-stall
 * intervals, link-transfer spans on the interconnect, scheduler/CRB
 * decisions, and one span per kernel launch. Each run's machine
 * (GpuSystem) owns one emitter, built only when --trace-out is set; a
 * null emitter pointer means tracing is off, so every hook is a single
 * inline null test and tier-1 runtime is unaffected. High-rate
 * categories (link transfers, warp stalls) are additionally thinned by
 * the sampling knob, whose 1-in-N phase starts afresh in every emitter,
 * and a hard event cap protects against unbounded memory on huge runs.
 *
 * An emitter buffers raw cycles. writeTrace() merges the runs' buffers
 * in sweep order into one document: each run gets its own timeline
 * offset so back-to-back experiments do not overlap in the viewer, and
 * cycles become microseconds of simulated time via each run's clock.
 */

#ifndef LADM_TELEMETRY_TRACE_HH
#define LADM_TELEMETRY_TRACE_HH

#include <cstdint>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace ladm
{
namespace telemetry
{

/** Well-known pid rows of the trace (Perfetto process lanes). */
enum TracePid : int
{
    kPidRuntime = 0,       ///< scheduler/CRB/kernel-level events
    kPidInterconnect = 9000, ///< link-transfer spans (tid = src node)
    kPidNodeBase = 1,      ///< node n renders as pid kPidNodeBase + n
};

struct TraceEvent
{
    Cycles start = 0;    ///< span start / instant cycle
    Cycles end = 0;      ///< span end cycle ("X" events), >= start
    char ph = 'X';       ///< "X" complete, "i" instant, "M" metadata
    int pid = 0;
    int tid = 0;
    std::string name;
    const char *cat = "";
    std::string argsJson; ///< pre-rendered JSON object, may be empty
};

class TraceEmitter
{
  public:
    /**
     * @param sample_every thin high-rate categories to 1-in-N
     * @param max_events   hard cap on spans and instants; later ones are
     *                     dropped and counted (lane names are always
     *                     kept: there is one per viewer lane)
     * @param clock_ghz    core clock of the run's machine
     */
    explicit TraceEmitter(uint32_t sample_every = 64,
                          size_t max_events = 1'000'000,
                          double clock_ghz = 1.0);

    /**
     * An empty emitter with this one's sampling and cap, for a part of
     * the run (an event-loop lane) that append() moves back here.
     */
    TraceEmitter
    fork() const
    {
        return TraceEmitter(sampleEvery_, maxEvents_);
    }

    /** 1-in-N admission test for high-rate categories. */
    bool
    sampleTick()
    {
        return sampleEvery_ <= 1 || (tick_++ % sampleEvery_) == 0;
    }

    /** Record a complete ("X") span covering [startCycle, endCycle]. */
    void complete(const char *cat, std::string name, int pid, int tid,
                  Cycles start_cycle, Cycles end_cycle,
                  std::string args_json = "");

    /** Record an instant ("i") event at @p at_cycle. */
    void instant(const char *cat, std::string name, int pid, int tid,
                 Cycles at_cycle, std::string args_json = "");

    /** Name a process/thread lane in the viewer (recorded once). */
    void processName(int pid, const std::string &name);
    void threadName(int pid, int tid, const std::string &name);

    /**
     * Move @p other's events to the end of this one, under this one's
     * cap, and add up the drop counts. @p other is spent.
     */
    void append(TraceEmitter &&other);

    /**
     * Keep only the first @p n spans and instants, counting the rest as
     * dropped; lane names stay. Returns the number kept.
     */
    size_t keepFirst(size_t n);

    size_t numEvents() const { return events_.size(); }
    size_t droppedEvents() const { return dropped_; }

  private:
    friend size_t writeTrace(std::ostream &os,
                             const std::vector<TraceEmitter> &runs,
                             size_t max_events);

    void push(TraceEvent ev);

    uint32_t sampleEvery_;
    uint64_t tick_ = 0;
    size_t maxEvents_;
    size_t kept_ = 0; ///< spans and instants in events_
    size_t dropped_ = 0;
    double usPerCycle_;
    std::vector<TraceEvent> events_;
    std::set<std::pair<int, int>> namedLanes_;
};

/**
 * Merge @p runs, in order, into one Chrome trace JSON document
 * {"traceEvents": [...], ...} on @p os. Each run starts 50 us past the
 * latest end recorded before it; a lane named by an earlier run keeps
 * that name; only the first @p max_events events are kept. Metadata
 * comes first, then events sorted by timestamp, so consumers see a
 * monotone stream. Returns the number of events dropped in all.
 */
size_t writeTrace(std::ostream &os, const std::vector<TraceEmitter> &runs,
                  size_t max_events);

} // namespace telemetry
} // namespace ladm

#endif // LADM_TELEMETRY_TRACE_HH
