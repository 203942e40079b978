#include "common/rng.hh"

#include <cmath>

namespace ladm
{

namespace
{

uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t s = seed;
    for (auto &w : state_)
        w = splitmix64(s);
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

uint64_t
Rng::nextBounded(uint64_t bound)
{
    return nextBounded(bound, rejectionThreshold(bound));
}

uint64_t
Rng::nextBounded(uint64_t bound, uint64_t threshold)
{
    if (bound <= 1)
        return 0;
    // Rejection sampling to avoid modulo bias.
    for (;;) {
        uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

double
Rng::nextDouble()
{
    return (next() >> 11) * (1.0 / 9007199254740992.0); // 2^53
}

uint64_t
Rng::nextZipf(uint64_t n, double alpha)
{
    if (n <= 1)
        return 0;
    if (alpha <= 0.0)
        return nextBounded(n);
    // Inverse-CDF approximation for a continuous bounded Pareto, quantized.
    // Cheap (no per-domain tables) and adequately skewed for graph synthesis.
    const double u = nextDouble();
    const double exponent = 1.0 - alpha;
    double v;
    if (std::abs(exponent) < 1e-9) {
        v = std::pow(static_cast<double>(n), u);
    } else {
        const double hi = std::pow(static_cast<double>(n), exponent);
        v = std::pow(u * (hi - 1.0) + 1.0, 1.0 / exponent);
    }
    uint64_t idx = static_cast<uint64_t>(v) - 1;
    return idx >= n ? n - 1 : idx;
}

} // namespace ladm
