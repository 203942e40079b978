#include "cache/cache.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "common/sim_error.hh"
#include "mem/address.hh"
#include "telemetry/stat_registry.hh"

namespace ladm
{

void
SectoredCache::registerStats(telemetry::StatRegistry &reg,
                             const std::string &path) const
{
    const StatKind acc = StatKind::Counter;
    reg.gauge(path + ".accesses",
              [this] { return static_cast<double>(accesses_); }, acc);
    reg.gauge(path + ".hits",
              [this] { return static_cast<double>(hits_); }, acc);
    reg.gauge(path + ".sector_misses",
              [this] { return static_cast<double>(sectorMisses_); }, acc);
    reg.gauge(path + ".line_misses",
              [this] { return static_cast<double>(lineMisses_); }, acc);
    reg.gauge(path + ".bypasses",
              [this] { return static_cast<double>(bypasses_); }, acc);
    reg.formula(path + ".hit_rate", [this] { return hitRate(); });
}

SectoredCache::SectoredCache(Bytes size, int assoc, std::string name)
    : name_(std::move(name)), assoc_(assoc)
{
    ladm_assert(assoc >= 1, "associativity must be >= 1");
    Bytes set_bytes = static_cast<Bytes>(assoc) * kLineSize;
    ladm_assert(size >= set_bytes && size % set_bytes == 0,
                "cache '", name_, "': size ", size,
                " not a multiple of assoc*line");
    numSets_ = size / set_bytes;
    ways_.resize(numSets_ * assoc_);
    if (isPowerOfTwo(numSets_)) {
        int shift = 0;
        while ((size_t(1) << shift) < numSets_)
            ++shift;
        // The shift fast path must reproduce the division hash exactly;
        // line/(n*n) == line >> 2*shift only while 2*shift < 64.
        if (2 * shift < 64) {
            setShift_ = shift;
            setMask_ = numSets_ - 1;
        }
    }
}

uint64_t
SectoredCache::invalidateRange(Addr lo, Addr hi)
{
    uint64_t dropped = 0;
    for (Addr line = lineBase(lo); line < hi; line += kLineSize) {
        Way *const set = &ways_[setIndex(line) * assoc_];
        for (int i = 0; i < assoc_; ++i) {
            if (set[i].tag != line)
                continue;
            dropped += static_cast<uint64_t>(
                __builtin_popcount(validOf(set[i].meta)));
            set[i] = Way{};
            break;
        }
    }
    return dropped;
}

uint64_t
SectoredCache::invalidateAll()
{
    if (!populated_)
        return 0;
    uint64_t dirty = 0;
    for (Way &w : ways_) {
        if (w.tag != kNoLine)
            dirty += static_cast<uint64_t>(
                __builtin_popcount(dirtyOf(w.meta)));
        w = Way{};
    }
    populated_ = false;
    return dirty;
}

void
SectoredCache::checkStampHeadroom() const
{
    ladm_require(useClock_ < kStampHeadroom, "cache '", name_,
                 "': LRU clock ", useClock_,
                 " nears the 48-bit stamp limit");
}

void
SectoredCache::resetStats()
{
    accesses_ = 0;
    hits_ = 0;
    sectorMisses_ = 0;
    lineMisses_ = 0;
    bypasses_ = 0;
}

} // namespace ladm
