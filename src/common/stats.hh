/**
 * @file
 * Lightweight statistics package: named scalar counters and histograms
 * grouped under a StatGroup for reset at experiment boundaries.
 * Inspired by gem5's stats package, reduced to the pieces the LADM
 * experiments actually need.
 *
 * StatGroups are the leaves of the hierarchical telemetry registry
 * (telemetry/stat_registry.hh); visit() is the enumeration hook the
 * registry's exporters are built on.
 */

#ifndef LADM_COMMON_STATS_HH
#define LADM_COMMON_STATS_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace ladm
{

/** What a published statistic value represents (drives delta semantics). */
enum class StatKind
{
    Counter,   ///< monotonically accumulated; deltas subtract
    Histogram, ///< bucketed sample counts; deltas subtract per bucket
    Gauge,     ///< pull-based instantaneous value; deltas take the newest
    Formula,   ///< derived from other stats; deltas take the newest
};

const char *toString(StatKind k);

/** A monotonically accumulated scalar statistic. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator+=(uint64_t v) { value_ += v; return *this; }
    Counter &operator++() { ++value_; return *this; }
    void reset() { value_ = 0; }

    uint64_t value() const { return value_; }

    /** Checkpoint support (snapshot/component_state.cc). */
    template <class Ar> void io(Ar &ar);

  private:
    uint64_t value_ = 0;
};

/** Fixed-bucket histogram over [0, max) with overflow bucket. */
class Histogram
{
  public:
    Histogram(uint64_t width = 1, size_t num_buckets = 16);

    /** Inline: sampled once per warp step on the engine's hot loop. */
    void
    sample(uint64_t v)
    {
        const size_t idx = static_cast<size_t>(v / bucketWidth_);
        if (idx < buckets_.size())
            ++buckets_[idx];
        else
            ++overflow_;
        ++total_;
        sum_ += static_cast<double>(v);
        max_ = std::max(max_, v);
    }

    void reset();

    /**
     * Fold @p other into this histogram. Requires identical geometry
     * (bucket width and count): the sharded engine samples into
     * per-shard histograms during the parallel phase and merges them
     * into the registered one at kernel end.
     */
    void merge(const Histogram &other);

    uint64_t bucketCount(size_t i) const;
    size_t numBuckets() const { return buckets_.size(); }
    uint64_t bucketWidth() const { return bucketWidth_; }
    uint64_t overflow() const { return overflow_; }
    uint64_t totalSamples() const { return total_; }
    double mean() const { return total_ ? sum_ / total_ : 0.0; }
    uint64_t maxValue() const { return max_; }

    /**
     * Estimate the q-quantile (q in [0,1]) by linear interpolation within
     * the bucket holding the q*total'th sample. Samples in the overflow
     * bucket interpolate between the bucketed range's end and maxValue(),
     * so long-tail runs no longer report a percentile capped at the last
     * regular bucket. Edges are total (never NaN): an empty histogram
     * reports 0.0, NaN q reads as 0.0, and q >= 1.0 is exactly
     * maxValue().
     */
    double percentile(double q) const;

    /** Fraction of samples that landed past the last regular bucket. */
    double overflowFraction() const
    {
        return total_ ? static_cast<double>(overflow_) / total_ : 0.0;
    }

    /** Checkpoint support, including geometry (component_state.cc). */
    template <class Ar> void io(Ar &ar);

  private:
    uint64_t bucketWidth_;
    std::vector<uint64_t> buckets_;
    uint64_t overflow_ = 0;
    uint64_t total_ = 0;
    double sum_ = 0.0;
    uint64_t max_ = 0;
};

/**
 * Log2-bucketed histogram: bucket b counts values of bit-width b, so the
 * 65 fixed buckets cover the full uint64_t range with constant memory and
 * an O(1) branch-free sample() — suitable for latency distributions that
 * span from a single-cycle L1 hit to a multi-thousand-cycle remote DRAM
 * round trip without choosing a bucket width up front.
 */
class LogHistogram
{
  public:
    /** Bucket 0 holds v == 0; bucket b >= 1 holds v in [2^(b-1), 2^b). */
    static constexpr size_t kNumBuckets = 65;

    /** Inline: sampled once per latency component on the access path. */
    void
    sample(uint64_t v)
    {
        ++buckets_[bucketOf(v)];
        sum_ += static_cast<double>(v);
        if (total_++ == 0) {
            min_ = max_ = v;
        } else {
            min_ = std::min(min_, v);
            max_ = std::max(max_, v);
        }
    }

    static size_t bucketOf(uint64_t v) { return std::bit_width(v); }

    void reset();
    /** Accumulate another histogram's samples into this one. */
    void merge(const LogHistogram &o);

    uint64_t bucketCount(size_t i) const
    {
        return i < kNumBuckets ? buckets_[i] : 0;
    }
    uint64_t totalSamples() const { return total_; }
    double mean() const { return total_ ? sum_ / total_ : 0.0; }
    uint64_t maxValue() const { return total_ ? max_ : 0; }
    uint64_t minValue() const { return total_ ? min_ : 0; }

    /**
     * Estimate the q-quantile (q in [0,1]) by linear interpolation within
     * the power-of-two bucket holding the q*total'th sample, clamped to
     * the observed [min, max] range.
     */
    double percentile(double q) const;

    /** Checkpoint support (snapshot/component_state.cc). */
    template <class Ar> void io(Ar &ar);

  private:
    uint64_t buckets_[kNumBuckets] = {};
    uint64_t total_ = 0;
    double sum_ = 0.0;
    uint64_t min_ = 0;
    uint64_t max_ = 0;
};

/**
 * A named collection of counters for one simulated component. Components
 * register their stats here; the registry's exporters read them through
 * visit().
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Fetch (creating on first use) the counter with the given name. */
    Counter &counter(const std::string &name);
    /**
     * Fetch (creating on first use) the histogram with the given name.
     * Shape parameters apply only on first use; later fetches return the
     * existing histogram unchanged.
     */
    Histogram &histogram(const std::string &name, uint64_t width = 1,
                         size_t num_buckets = 16);
    /** Fetch (creating on first use) the log2 histogram with given name. */
    LogHistogram &logHistogram(const std::string &name);

    /** Sum of a counter, zero if never touched. */
    uint64_t get(const std::string &name) const;

    void reset();

    /**
     * Enumerate every published scalar as (name, value, kind), in sorted
     * name order. Histograms expand to <name>.samples / <name>.mean /
     * <name>.max / <name>.p50 / <name>.p95 / <name>.p99 / <name>.bucket<i>
     * / <name>.overflow / <name>.overflow_frac entries; log histograms to
     * <name>.samples / <name>.mean / <name>.max / <name>.p50 / <name>.p95
     * / <name>.p99.
     */
    void visit(const std::function<void(const std::string &, double,
                                        StatKind)> &fn) const;

    const std::string &name() const { return name_; }
    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, Histogram> &histograms() const
    {
        return histograms_;
    }
    const std::map<std::string, LogHistogram> &logHistograms() const
    {
        return logHistograms_;
    }

    /**
     * Checkpoint every named entry; load re-creates entries that were
     * registered lazily (snapshot/component_state.cc).
     */
    template <class Ar> void io(Ar &ar);

  private:
    std::string name_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Histogram> histograms_;
    std::map<std::string, LogHistogram> logHistograms_;
};

} // namespace ladm

#endif // LADM_COMMON_STATS_HH
