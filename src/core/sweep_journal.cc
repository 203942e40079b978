#include "core/sweep_journal.hh"

#include <cstring>
#include <memory>

#include "common/logging.hh"
#include "common/serial.hh"
#include "config/options.hh"
#include "snapshot/snapshot.hh"

namespace ladm
{
namespace core
{

namespace
{

// The metrics blob reuses the checkpoint serializer inside one journal
// section: binary doubles round-trip exactly, so a replayed row is
// byte-identical to the freshly-computed one in every sink.
constexpr uint32_t kMetricsSection = 1;

/** The metrics blob's one field list, for packMetrics and unpackMetrics. */
template <class Ar>
void
metricsIo(Ar &ar, RunMetrics &m)
{
    ar(m.workload, m.policy, m.system, m.scheduler);
    ar.choice(m.insertPolicy, L2InsertPolicy::ROnce);
    ar(m.cycles, m.tbCount, m.warpSteps, m.sectorAccesses, m.warpInstrs,
       m.fetchLocal, m.fetchRemote, m.nodeFetchLocal, m.nodeFetchRemote,
       m.offChipPct, m.interNodeBytes, m.interGpuBytes, m.l1HitRate,
       m.l2HitRate, m.l2Mpki, m.uvmFaults, m.classAccesses, m.classHitRate,
       m.rehomedPages, m.failedNodeAccesses, m.hasLatency);
    for (obs::LatSummary &s : m.latency)
        ar(s.samples, s.mean, s.p50, s.p95, s.p99, s.max);
    ar(m.error);
}

std::string
packMetrics(RunMetrics m)
{
    serial::Writer w;
    w.section(kMetricsSection);
    metricsIo(w, m);
    return w.finish(0);
}

/** False (cell re-runs) when the blob fails to parse. */
bool
unpackMetrics(const std::string &blob, RunMetrics &m)
{
    try {
        serial::Reader r(blob);
        r.section(kMetricsSection);
        metricsIo(r, m);
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

} // namespace

uint64_t
cellKey(const SweepCell &cell)
{
    const uint64_t fingerprint = snapshot::configFingerprint(cell.cfg);
    serial::Hasher h;
    h(cell.workload, cell.policy, fingerprint, cell.launches, cell.scale);
    return h.value();
}

SweepJournal::SweepJournal(const std::string &path)
{
    size_t unreadable = 0;
    log_.open(path, LogKind::Sweep, [&](std::string_view rec) {
        uint64_t key = 0;
        RunMetrics m;
        if (rec.size() < sizeof key ||
            !unpackMetrics(std::string(rec.substr(sizeof key)), m)) {
            ++unreadable;
            return;
        }
        std::memcpy(&key, rec.data(), sizeof key);
        done_.emplace(key, std::move(m));
    });
    replayed_ = done_.size();
    if (unreadable) {
        ladm_warn("sweep journal '", path, "': ", unreadable,
                  " record(s) in an older metrics format; those cells "
                  "re-run");
    }
}

const RunMetrics *
SweepJournal::completed(uint64_t key) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = done_.find(key);
    return it == done_.end() ? nullptr : &it->second;
}

void
SweepJournal::noteDone(uint64_t key, const RunMetrics &m)
{
    std::string rec(reinterpret_cast<const char *>(&key), sizeof key);
    rec += packMetrics(m);
    std::lock_guard<std::mutex> lk(mu_);
    // Values never change once stored: completed() hands out pointers.
    if (done_.emplace(key, m).second)
        log_.append(rec);
}

namespace
{

std::unique_ptr<SweepJournal> g_journal;
bool g_envChecked = false;

} // namespace

SweepJournal *
sweepJournal()
{
    if (!g_journal && !g_envChecked) {
        g_envChecked = true;
        if (const std::string p = opt::str(opt::kResumeSweep); !p.empty())
            g_journal = std::make_unique<SweepJournal>(p);
    }
    return g_journal.get();
}

void
setSweepJournalPath(const std::string &path)
{
    g_envChecked = true; // explicit setting overrides the environment
    g_journal =
        path.empty() ? nullptr : std::make_unique<SweepJournal>(path);
}

} // namespace core
} // namespace ladm
