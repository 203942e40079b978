/**
 * @file
 * StatRegistry: the hierarchical statistics tree of one simulated machine.
 *
 * Every component registers under a dotted path ("node3.l2", "engine",
 * "net.gpu0.ring") and either owns a StatGroup of eagerly-updated
 * counters/histograms (cold paths) or publishes pull-based
 * gauges/formulas that read the component's existing hot-path members on
 * demand (zero cost while the simulation runs). Exporters
 * (telemetry/exporters.hh) flatten the tree to text, CSV, or versioned
 * JSON; Snapshot/delta pairs give per-kernel stat windows at kernel
 * boundaries.
 */

#ifndef LADM_TELEMETRY_STAT_REGISTRY_HH
#define LADM_TELEMETRY_STAT_REGISTRY_HH

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace ladm
{
namespace telemetry
{

/** One published value at snapshot time. */
struct Sample
{
    double value = 0.0;
    StatKind kind = StatKind::Gauge;

    template <class Ar> void io(Ar &ar);
};

/** A flat path -> value capture of the whole registry at one instant. */
class Snapshot
{
  public:
    std::map<std::string, Sample> values;

    /**
     * Stat window between @p prev and this snapshot: accumulating kinds
     * (Counter, histogram buckets) subtract; instantaneous kinds
     * (Gauge/Formula/histogram means) keep this snapshot's value.
     */
    Snapshot delta(const Snapshot &prev) const;

    /** Value lookup, empty if the path is absent. */
    std::optional<double> value(const std::string &path) const;

    bool empty() const { return values.empty(); }

    /** Checkpoint support (snapshot/component_state.cc). */
    template <class Ar> void io(Ar &ar);
};

class StatRegistry
{
  public:
    StatRegistry() = default;

    // Registries hand out stable references and store self-referential
    // gauge closures; they are not copyable.
    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

    /**
     * Fetch (lazily creating) the StatGroup at dotted @p path, e.g.
     * "node3.l2". The group's own name is the full path, so its dump
     * lines are globally unique.
     */
    StatGroup &group(const std::string &path);

    /** Group lookup without creation. */
    const StatGroup *findGroup(const std::string &path) const;

    /**
     * Publish a pull-based scalar under dotted @p path (the last segment
     * is the stat name). The closure must outlive the registry's last
     * snapshot/visit — in practice the owning component and the registry
     * share a lifetime (both live in GpuSystem). Pass
     * StatKind::Counter for values that accumulate monotonically so
     * per-kernel deltas subtract them; the default Gauge kind reports
     * the instantaneous value in deltas.
     */
    void gauge(const std::string &path, std::function<double()> fn,
               StatKind kind = StatKind::Gauge);

    /**
     * Publish a derived stat (remote-traffic fraction, link utilization,
     * ...). Identical mechanics to gauge(); tagged Formula so exporters
     * and deltas treat it as instantaneous.
     */
    void formula(const std::string &path, std::function<double()> fn);

    /**
     * Resolve a full dotted path ("node3.l2.hits") to its current value,
     * searching groups (longest-prefix match) and gauges/formulas.
     */
    std::optional<double> value(const std::string &path) const;

    /** Enumerate every stat as (full dotted path, value, kind), sorted. */
    void visit(const std::function<void(const std::string &, double,
                                        StatKind)> &fn) const;

    /** Capture the whole tree. */
    Snapshot snapshot() const;

    /** Reset every StatGroup (gauges read live state and are untouched). */
    void reset();

    /** Paths of all registered groups, sorted. */
    std::vector<std::string> groupPaths() const;

    size_t numGroups() const { return groups_.size(); }
    size_t numGauges() const { return gauges_.size(); }

    /**
     * Checkpoint every eager StatGroup (snapshot/component_state.cc).
     * Gauges/formulas are pull-based closures over live component state
     * and restore through their owners, not here.
     */
    template <class Ar> void io(Ar &ar);

  private:
    struct GaugeEntry
    {
        std::function<double()> fn;
        StatKind kind;
    };

    std::map<std::string, StatGroup> groups_; // key = full dotted path
    std::map<std::string, GaugeEntry> gauges_; // key = full dotted path
};

} // namespace telemetry
} // namespace ladm

#endif // LADM_TELEMETRY_STAT_REGISTRY_HH
