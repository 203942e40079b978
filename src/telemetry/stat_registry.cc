#include "telemetry/stat_registry.hh"

#include "common/logging.hh"

namespace ladm
{
namespace telemetry
{

namespace
{

bool
accumulating(StatKind k)
{
    return k == StatKind::Counter;
}

} // namespace

Snapshot
Snapshot::delta(const Snapshot &prev) const
{
    Snapshot d;
    for (const auto &[path, s] : values) {
        Sample out = s;
        if (accumulating(s.kind)) {
            auto it = prev.values.find(path);
            if (it != prev.values.end())
                out.value = s.value - it->second.value;
        }
        d.values.emplace(path, out);
    }
    return d;
}

std::optional<double>
Snapshot::value(const std::string &path) const
{
    auto it = values.find(path);
    if (it == values.end())
        return std::nullopt;
    return it->second.value;
}

StatGroup &
StatRegistry::group(const std::string &path)
{
    ladm_assert(!path.empty(), "stat group path must be non-empty");
    auto it = groups_.find(path);
    if (it == groups_.end())
        it = groups_.emplace(path, StatGroup(path)).first;
    return it->second;
}

const StatGroup *
StatRegistry::findGroup(const std::string &path) const
{
    auto it = groups_.find(path);
    return it == groups_.end() ? nullptr : &it->second;
}

void
StatRegistry::gauge(const std::string &path, std::function<double()> fn,
                    StatKind kind)
{
    ladm_assert(fn, "gauge '", path, "' needs a callable");
    gauges_[path] = GaugeEntry{std::move(fn), kind};
}

void
StatRegistry::formula(const std::string &path, std::function<double()> fn)
{
    ladm_assert(fn, "formula '", path, "' needs a callable");
    gauges_[path] = GaugeEntry{std::move(fn), StatKind::Formula};
}

std::optional<double>
StatRegistry::value(const std::string &path) const
{
    if (auto it = gauges_.find(path); it != gauges_.end())
        return it->second.fn();
    // Longest-prefix group match: "a.b.c.d" tries group "a.b.c" stat "d",
    // then group "a.b" stat "c.d" (histogram sub-stats dot their names).
    for (size_t dot = path.rfind('.'); dot != std::string::npos;
         dot = dot ? path.rfind('.', dot - 1) : std::string::npos) {
        const std::string grp = path.substr(0, dot);
        const std::string stat = path.substr(dot + 1);
        if (const StatGroup *g = findGroup(grp)) {
            std::optional<double> found;
            g->visit([&](const std::string &name, double v, StatKind) {
                if (name == stat)
                    found = v;
            });
            if (found)
                return found;
        }
        if (dot == 0)
            break;
    }
    return std::nullopt;
}

void
StatRegistry::visit(const std::function<void(const std::string &, double,
                                             StatKind)> &fn) const
{
    // Merge groups and gauges in path order so exporters see one sorted
    // stream. Both maps are already sorted; a two-pointer walk keeps the
    // merged order without materializing an intermediate map.
    auto git = groups_.begin();
    auto xit = gauges_.begin();
    while (git != groups_.end() || xit != gauges_.end()) {
        const bool take_group =
            xit == gauges_.end() ||
            (git != groups_.end() && git->first <= xit->first);
        if (take_group) {
            const std::string &prefix = git->first;
            git->second.visit([&](const std::string &name, double v,
                                  StatKind k) {
                fn(prefix + "." + name, v, k);
            });
            ++git;
        } else {
            fn(xit->first, xit->second.fn(), xit->second.kind);
            ++xit;
        }
    }
}

Snapshot
StatRegistry::snapshot() const
{
    Snapshot s;
    visit([&](const std::string &path, double v, StatKind k) {
        s.values[path] = Sample{v, k};
    });
    return s;
}

void
StatRegistry::reset()
{
    for (auto &[path, g] : groups_)
        g.reset();
}

} // namespace telemetry
} // namespace ladm
