/**
 * @file
 * Cycle-windowed timeline sampler: snapshots a configurable set of
 * StatRegistry paths every W simulated cycles and stores the per-window
 * *deltas*, turning a run's end-of-run counters into a plottable time
 * series (link utilization over time, hit-rate warm-up curves, locality
 * shifts at kernel boundaries).
 *
 * Memory is bounded: past a configurable window count, adjacent windows
 * merge pairwise and the window width doubles, so an arbitrarily long run
 * degrades resolution instead of growing without bound. Because windows
 * store deltas between consecutive registry reads, the sum of all window
 * deltas telescopes to (final - initial) counter value bit-exactly — the
 * conservation property the tests pin down.
 *
 * The engine's hot loop pays one inline compare (maybeTick) per event
 * when a timeline is attached, and nothing at all when it is not.
 */

#ifndef LADM_OBS_TIMELINE_HH
#define LADM_OBS_TIMELINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "telemetry/stat_registry.hh"

namespace ladm
{

namespace obs
{

/** One sampling window: per-path value deltas over [start, end). */
struct TimelineWindow
{
    Cycles start = 0;
    Cycles end = 0;
    std::vector<double> delta; ///< parallel to Timeline::paths()

    template <class Ar> void io(Ar &ar);
};

class Timeline
{
  public:
    struct Options
    {
        uint64_t windowCycles = 10'000;
        /** Merge-and-double past this many stored windows (>= 2). */
        uint32_t maxWindows = 512;
        std::vector<std::string> paths;
    };

    Timeline(const telemetry::StatRegistry *reg, Options opts);

    /** Inline hot-loop hook: one compare until the window boundary. */
    void
    maybeTick(Cycles now)
    {
        if (now >= nextAt_)
            tick(now);
    }

    /** Flush the partial final window; further ticks are ignored. */
    void finish(Cycles now);

    const std::vector<std::string> &paths() const { return paths_; }
    const std::vector<TimelineWindow> &windows() const { return windows_; }
    /** Current window width (doubles on every compaction). */
    uint64_t windowCycles() const { return windowCycles_; }
    uint64_t mergeCount() const { return merges_; }

    /** Sum of every window's delta per path (== final - initial value). */
    std::vector<double> totals() const;

    /**
     * Checkpoint stored windows + the open window's baseline reads
     * (snapshot/component_state.cc) so a resumed run's telescoping sums
     * stay bit-exact.
     */
    template <class Ar> void io(Ar &ar);

  private:
    void tick(Cycles now);
    void compact();
    std::vector<double> readValues() const;

    const telemetry::StatRegistry *reg_;
    std::vector<std::string> paths_;
    uint64_t windowCycles_;
    uint32_t maxWindows_;
    Cycles windowStart_ = 0;
    Cycles nextAt_;
    std::vector<double> lastVals_;
    std::vector<TimelineWindow> windows_;
    uint64_t merges_ = 0;
    bool finished_ = false;
};

} // namespace obs
} // namespace ladm

#endif // LADM_OBS_TIMELINE_HH
