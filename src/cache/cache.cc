#include "cache/cache.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"
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
    ladm_assert(assoc >= 1 && static_cast<uint64_t>(assoc) < kMaxStamp,
                "associativity must be in [1, 2^25)");
    Bytes set_bytes = static_cast<Bytes>(assoc) * kLineSize;
    ladm_assert(size >= set_bytes && size % set_bytes == 0,
                "cache '", name_, "': size ", size,
                " not a multiple of assoc*line");
    numSets_ = size / set_bytes;
    ways_.resize(numSets_ * assoc_); // zero-filled: every way empty
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
    for (uint64_t line = lo / kLineSize; line * kLineSize < hi; ++line) {
        const size_t i = findWay(line, tagOf(line));
        if (i == kNoWay)
            continue;
        dropped += static_cast<uint64_t>(
            __builtin_popcountll(ways_[i] & kValidMask));
        ways_[i] = 0;
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
        dirty += static_cast<uint64_t>(__builtin_popcount(dirtyOf(w)));
        w = 0;
    }
    populated_ = false;
    return dirty;
}

void
SectoredCache::renumberStamps()
{
    const uint64_t keep = ~(kMaxStamp << kStampShift);
    std::vector<uint64_t> rank(static_cast<size_t>(assoc_));
    for (size_t s = 0; s < numSets_; ++s) {
        Way *const set = &ways_[s * assoc_];
        // Resident stamps are distinct, so whole words rank them.
        for (int i = 0; i < assoc_; ++i) {
            rank[i] = 1;
            for (int j = 0; j < assoc_; ++j)
                rank[i] += set[j] != 0 && set[j] < set[i];
        }
        for (int i = 0; i < assoc_; ++i) {
            if (set[i] != 0)
                set[i] = (set[i] & keep) | rank[i] << kStampShift;
        }
    }
    useClock_ = static_cast<uint64_t>(assoc_) + 1;
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
