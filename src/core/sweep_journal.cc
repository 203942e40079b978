#include "core/sweep_journal.hh"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/serial.hh"

namespace ladm
{
namespace core
{

namespace
{

constexpr const char *kHeader = "ladm-sweep-journal-v1";

std::string
hexEncode(const std::string &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (const unsigned char c : bytes) {
        out.push_back(digits[c >> 4]);
        out.push_back(digits[c & 0xf]);
    }
    return out;
}

/** Hex -> bytes; false on odd length or a non-hex digit (torn line). */
bool
hexDecode(const std::string &hex, std::string &out)
{
    if (hex.size() % 2 != 0)
        return false;
    out.clear();
    out.reserve(hex.size() / 2);
    auto nibble = [](char c) -> int {
        if (c >= '0' && c <= '9')
            return c - '0';
        if (c >= 'a' && c <= 'f')
            return c - 'a' + 10;
        return -1;
    };
    for (size_t i = 0; i < hex.size(); i += 2) {
        const int hi = nibble(hex[i]);
        const int lo = nibble(hex[i + 1]);
        if (hi < 0 || lo < 0)
            return false;
        out.push_back(static_cast<char>((hi << 4) | lo));
    }
    return true;
}

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

std::string
cellKey(const SweepCell &cell, size_t index)
{
    std::ostringstream os;
    os.precision(17);
    os << cell.workload << '|' << static_cast<int>(cell.policy) << '|'
       << cell.cfg.name << '|' << cell.launches << '|' << cell.scale
       << '|' << index;
    return os.str();
}

SweepJournal::SweepJournal(std::string path) : path_(std::move(path))
{
    replay();
}

void
SweepJournal::replay()
{
    std::ifstream in(path_);
    if (!in)
        return; // first run: created on the first append
    std::string line;
    size_t lineno = 0, skipped = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (lineno == 1) {
            if (line != kHeader) {
                ladm_warn("sweep journal '", path_,
                          "' has an unknown header; ignoring its "
                          "contents");
                return;
            }
            continue;
        }
        std::istringstream ls(line);
        std::string verb, hexkey, hexblob;
        ls >> verb >> hexkey;
        std::string key;
        if (!hexDecode(hexkey, key)) {
            ++skipped;
            continue;
        }
        if (verb == "start") {
            inFlight_.insert(key);
        } else if (verb == "done") {
            ls >> hexblob;
            std::string blob;
            RunMetrics m;
            if (hexDecode(hexblob, blob) && unpackMetrics(blob, m)) {
                done_[key] = std::move(m);
                inFlight_.erase(key);
            } else {
                ++skipped;
            }
        } else {
            ++skipped;
        }
    }
    if (skipped) {
        ladm_warn("sweep journal '", path_, "': skipped ", skipped,
                  " unparseable line(s) (torn by a kill?); those cells "
                  "re-run");
    }
    if (!done_.empty() || !inFlight_.empty()) {
        ladm_inform("sweep journal '", path_, "': ", done_.size(),
                    " completed cell(s) replayed, ", inFlight_.size(),
                    " in-flight cell(s) re-queued");
    }
}

void
SweepJournal::append(const std::string &line)
{
    // Append-only with a per-line flush: a kill tears at most the final
    // line, which replay() skips. (Atomic-rename is wrong here -- the
    // journal must survive partial progress, not replace it.)
    std::ofstream out(path_, std::ios::app);
    if (!out) {
        ladm_warn("sweep journal: cannot append to '", path_, "'");
        return;
    }
    if (out.tellp() == std::ofstream::pos_type(0))
        out << kHeader << '\n';
    out << line << '\n';
    out.flush();
}

const RunMetrics *
SweepJournal::completed(const std::string &key) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = done_.find(key);
    return it == done_.end() ? nullptr : &it->second;
}

void
SweepJournal::noteStart(const std::string &key)
{
    std::lock_guard<std::mutex> lk(mu_);
    append("start " + hexEncode(key));
}

void
SweepJournal::noteDone(const std::string &key, const RunMetrics &m)
{
    std::lock_guard<std::mutex> lk(mu_);
    append("done " + hexEncode(key) + " " + hexEncode(packMetrics(m)));
    done_[key] = m;
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
        if (const char *p = std::getenv("LADM_SWEEP_JOURNAL"))
            if (*p)
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
