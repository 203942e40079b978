#include "common/stats.hh"

#include <algorithm>
#include <cmath>

namespace ladm
{

const char *
toString(StatKind k)
{
    switch (k) {
      case StatKind::Counter: return "counter";
      case StatKind::Histogram: return "histogram";
      case StatKind::Gauge: return "gauge";
      case StatKind::Formula: return "formula";
    }
    return "?";
}

Histogram::Histogram(uint64_t width, size_t num_buckets)
    : bucketWidth_(width ? width : 1), buckets_(num_buckets, 0)
{
}

void
Histogram::reset()
{
    for (auto &b : buckets_)
        b = 0;
    overflow_ = 0;
    total_ = 0;
    sum_ = 0.0;
    max_ = 0;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.total_ == 0)
        return;
    // Geometry mismatch would silently misfile counts; refuse by
    // folding everything into overflow instead of lying bucket-by-bucket.
    if (other.bucketWidth_ == bucketWidth_ &&
        other.buckets_.size() == buckets_.size()) {
        for (size_t i = 0; i < buckets_.size(); ++i)
            buckets_[i] += other.buckets_[i];
        overflow_ += other.overflow_;
    } else {
        overflow_ += other.total_;
    }
    total_ += other.total_;
    sum_ += other.sum_;
    max_ = std::max(max_, other.max_);
}

uint64_t
Histogram::bucketCount(size_t i) const
{
    return i < buckets_.size() ? buckets_[i] : overflow_;
}

double
Histogram::percentile(double q) const
{
    // Edge contract (relied on by the .p50/.p95/.p99 exporter keys):
    //   - no samples            -> 0.0 (never NaN)
    //   - q >= 1.0              -> exactly maxValue()
    //   - NaN q                 -> treated as 0.0
    //   - every sample overflow -> interpolates within
    //     [bucketed-range-end, maxValue()], clamped to that interval
    if (total_ == 0)
        return 0.0;
    if (std::isnan(q))
        q = 0.0;
    if (q >= 1.0)
        return static_cast<double>(max_);
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(total_);
    double cum = 0.0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
        const double cnt = static_cast<double>(buckets_[i]);
        if (cnt > 0 && cum + cnt >= target) {
            const double lo = static_cast<double>(i * bucketWidth_);
            const double frac = (target - cum) / cnt;
            const double v = lo + frac * static_cast<double>(bucketWidth_);
            return std::min(v, static_cast<double>(max_));
        }
        cum += cnt;
    }
    // Quantile lands in the overflow bucket: interpolate between the end
    // of the bucketed range and the largest observed sample.
    const double lo =
        static_cast<double>(buckets_.size() * bucketWidth_);
    const double hi = std::max(lo, static_cast<double>(max_));
    const double frac =
        overflow_ ? (target - cum) / static_cast<double>(overflow_) : 1.0;
    return lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
}

void
LogHistogram::reset()
{
    for (auto &b : buckets_)
        b = 0;
    total_ = 0;
    sum_ = 0.0;
    min_ = 0;
    max_ = 0;
}

void
LogHistogram::merge(const LogHistogram &o)
{
    if (o.total_ == 0)
        return;
    for (size_t i = 0; i < kNumBuckets; ++i)
        buckets_[i] += o.buckets_[i];
    sum_ += o.sum_;
    if (total_ == 0) {
        min_ = o.min_;
        max_ = o.max_;
    } else {
        min_ = std::min(min_, o.min_);
        max_ = std::max(max_, o.max_);
    }
    total_ += o.total_;
}

double
LogHistogram::percentile(double q) const
{
    // Same edge contract as Histogram::percentile(): empty -> 0.0,
    // NaN q -> 0.0, q >= 1.0 -> exactly maxValue(); never NaN.
    if (total_ == 0)
        return 0.0;
    if (std::isnan(q))
        q = 0.0;
    if (q >= 1.0)
        return static_cast<double>(max_);
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(total_);
    double cum = 0.0;
    for (size_t b = 0; b < kNumBuckets; ++b) {
        const double cnt = static_cast<double>(buckets_[b]);
        if (cnt > 0 && cum + cnt >= target) {
            // Bucket b >= 1 spans [2^(b-1), 2^b); bucket 0 is exactly 0.
            double lo = b ? std::ldexp(1.0, static_cast<int>(b) - 1) : 0.0;
            double hi = b ? std::ldexp(1.0, static_cast<int>(b)) : 0.0;
            lo = std::max(lo, static_cast<double>(min_));
            hi = std::min(hi, static_cast<double>(max_) + 1.0);
            const double frac = (target - cum) / cnt;
            const double v = lo + frac * std::max(hi - lo, 0.0);
            return std::clamp(v, static_cast<double>(min_),
                              static_cast<double>(max_));
        }
        cum += cnt;
    }
    return static_cast<double>(max_);
}

Counter &
StatGroup::counter(const std::string &name)
{
    return counters_[name];
}

Histogram &
StatGroup::histogram(const std::string &name, uint64_t width,
                     size_t num_buckets)
{
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_.emplace(name, Histogram(width, num_buckets))
                 .first;
    }
    return it->second;
}

LogHistogram &
StatGroup::logHistogram(const std::string &name)
{
    return logHistograms_[name];
}

uint64_t
StatGroup::get(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
}

void
StatGroup::reset()
{
    for (auto &[k, c] : counters_)
        c.reset();
    for (auto &[k, h] : histograms_)
        h.reset();
    for (auto &[k, h] : logHistograms_)
        h.reset();
}

void
StatGroup::visit(const std::function<void(const std::string &, double,
                                          StatKind)> &fn) const
{
    for (const auto &[k, c] : counters_)
        fn(k, static_cast<double>(c.value()), StatKind::Counter);
    for (const auto &[k, h] : histograms_) {
        fn(k + ".samples", static_cast<double>(h.totalSamples()),
           StatKind::Counter);
        fn(k + ".mean", h.mean(), StatKind::Histogram);
        fn(k + ".max", static_cast<double>(h.maxValue()),
           StatKind::Histogram);
        fn(k + ".p50", h.percentile(0.50), StatKind::Histogram);
        fn(k + ".p95", h.percentile(0.95), StatKind::Histogram);
        fn(k + ".p99", h.percentile(0.99), StatKind::Histogram);
        for (size_t i = 0; i < h.numBuckets(); ++i) {
            fn(k + ".bucket" + std::to_string(i),
               static_cast<double>(h.bucketCount(i)), StatKind::Counter);
        }
        fn(k + ".overflow", static_cast<double>(h.overflow()),
           StatKind::Counter);
        fn(k + ".overflow_frac", h.overflowFraction(), StatKind::Histogram);
    }
    for (const auto &[k, h] : logHistograms_) {
        fn(k + ".samples", static_cast<double>(h.totalSamples()),
           StatKind::Counter);
        fn(k + ".mean", h.mean(), StatKind::Histogram);
        fn(k + ".max", static_cast<double>(h.maxValue()),
           StatKind::Histogram);
        fn(k + ".p50", h.percentile(0.50), StatKind::Histogram);
        fn(k + ".p95", h.percentile(0.95), StatKind::Histogram);
        fn(k + ".p99", h.percentile(0.99), StatKind::Histogram);
    }
}

} // namespace ladm
