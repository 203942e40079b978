#include "telemetry/trace.hh"

#include <algorithm>

#include "common/logging.hh"
#include "telemetry/json_writer.hh"

namespace ladm
{
namespace telemetry
{

TraceEmitter::TraceEmitter(uint32_t sample_every, size_t max_events,
                           double clock_ghz)
    : sampleEvery_(std::max<uint32_t>(1, sample_every)),
      maxEvents_(std::max<size_t>(1, max_events))
{
    ladm_assert(clock_ghz > 0.0, "trace clock must be positive");
    usPerCycle_ = 1.0 / (clock_ghz * 1000.0);
}

void
TraceEmitter::push(TraceEvent ev)
{
    if (ev.ph != 'M') {
        if (kept_ >= maxEvents_) {
            ++dropped_;
            return;
        }
        ++kept_;
    }
    events_.push_back(std::move(ev));
}

void
TraceEmitter::complete(const char *cat, std::string name, int pid, int tid,
                       Cycles start_cycle, Cycles end_cycle,
                       std::string args_json)
{
    push(TraceEvent{start_cycle, std::max(start_cycle, end_cycle), 'X', pid,
                    tid, std::move(name), cat, std::move(args_json)});
}

void
TraceEmitter::instant(const char *cat, std::string name, int pid, int tid,
                      Cycles at_cycle, std::string args_json)
{
    push(TraceEvent{at_cycle, at_cycle, 'i', pid, tid, std::move(name), cat,
                    std::move(args_json)});
}

void
TraceEmitter::processName(int pid, const std::string &name)
{
    if (!namedLanes_.insert({pid, -1}).second)
        return;
    push(TraceEvent{0, 0, 'M', pid, 0, "process_name", "__metadata",
                    "{\"name\": \"" + jsonEscape(name) + "\"}"});
}

void
TraceEmitter::threadName(int pid, int tid, const std::string &name)
{
    if (!namedLanes_.insert({pid, tid}).second)
        return;
    push(TraceEvent{0, 0, 'M', pid, tid, "thread_name", "__metadata",
                    "{\"name\": \"" + jsonEscape(name) + "\"}"});
}

void
TraceEmitter::append(TraceEmitter &&other)
{
    for (TraceEvent &ev : other.events_)
        push(std::move(ev));
    dropped_ += other.dropped_;
}

size_t
TraceEmitter::keepFirst(size_t n)
{
    if (kept_ <= n)
        return kept_;
    size_t seen = 0;
    std::erase_if(events_, [&](const TraceEvent &ev) {
        return ev.ph != 'M' && ++seen > n;
    });
    dropped_ += kept_ - n;
    kept_ = n;
    return n;
}

size_t
writeTrace(std::ostream &os, const std::vector<TraceEmitter> &runs,
           size_t max_events)
{
    struct Placed { double ts, dur; const TraceEvent *ev; };
    std::vector<Placed> order;
    std::set<std::pair<int, int>> named;
    size_t dropped = 0;
    double max_ts = 0.0;
    for (const TraceEmitter &run : runs) {
        // Leave a visible gap between machines so experiments render as
        // separate bursts rather than one merged blob.
        const double offset = max_ts + 50.0;
        dropped += run.dropped_;
        for (const TraceEvent &ev : run.events_) {
            // A process name holds the lane key (pid, -1).
            const int tid = ev.name == "process_name" ? -1 : ev.tid;
            if (ev.ph == 'M' && !named.insert({ev.pid, tid}).second)
                continue;
            if (order.size() >= max_events) {
                ++dropped;
                continue;
            }
            Placed p{0.0, 0.0, &ev};
            if (ev.ph != 'M') {
                p.ts = offset + run.usPerCycle_ * ev.start;
                p.dur = offset + run.usPerCycle_ * ev.end - p.ts;
            }
            max_ts = std::max(max_ts, p.ts + p.dur);
            order.push_back(p);
        }
    }

    // Metadata first, then spans/instants sorted by timestamp: consumers
    // (and the telemetry tests) can assert a monotone stream.
    std::stable_sort(order.begin(), order.end(),
                     [](const Placed &a, const Placed &b) {
                         const bool ma = a.ev->ph == 'M';
                         const bool mb = b.ev->ph == 'M';
                         if (ma != mb)
                             return ma;
                         return a.ts < b.ts;
                     });

    JsonWriter jw(os, /*indent=*/0);
    jw.beginObject();
    jw.kv("displayTimeUnit", "ms");
    jw.kv("ladmTraceSchema", "ladm-trace-v1");
    jw.kv("droppedEvents", static_cast<uint64_t>(dropped));
    jw.key("traceEvents").beginArray();
    for (const Placed &p : order) {
        const TraceEvent &ev = *p.ev;
        jw.beginObject();
        jw.kv("name", ev.name);
        jw.kv("cat", ev.cat);
        jw.kv("ph", std::string(1, ev.ph));
        jw.kv("ts", p.ts);
        if (ev.ph == 'X')
            jw.kv("dur", p.dur);
        if (ev.ph == 'i')
            jw.kv("s", "t");
        jw.kv("pid", ev.pid);
        jw.kv("tid", ev.tid);
        if (!ev.argsJson.empty())
            jw.key("args").raw(ev.argsJson);
        jw.endObject();
    }
    jw.endArray();
    jw.endObject();
    os << "\n";
    return dropped;
}

} // namespace telemetry
} // namespace ladm
