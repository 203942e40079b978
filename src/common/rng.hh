/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * All randomized inputs (graphs, histogram keys, random access streams) are
 * derived from an Rng seeded explicitly, so every experiment is exactly
 * reproducible run-to-run.
 */

#ifndef LADM_COMMON_RNG_HH
#define LADM_COMMON_RNG_HH

#include <cstdint>

namespace ladm
{

/**
 * xoshiro256** generator. Small, fast, and good enough statistical quality
 * for synthetic-workload generation; not for cryptography.
 */
class Rng
{
  public:
    /** Seed via splitmix64 expansion so nearby seeds give unrelated streams. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform integer in [0, bound), bound > 0. Uses rejection sampling. */
    uint64_t nextBounded(uint64_t bound);

    /**
     * nextBounded(@p bound) with its rejection threshold, a 64-bit
     * division, taken from rejectionThreshold(@p bound) once for a loop
     * that draws many values under one bound. Draws the identical value.
     */
    uint64_t nextBounded(uint64_t bound, uint64_t threshold);

    /** Rejection threshold of nextBounded(@p bound). */
    static uint64_t
    rejectionThreshold(uint64_t bound)
    {
        return bound > 1 ? -bound % bound : 0;
    }

    /** Uniform double in [0, 1). */
    double nextDouble();

    /**
     * Sample from a truncated power-law (Zipf-like) distribution over
     * [0, n). Used for scale-free graph degree distributions.
     *
     * @param n     domain size
     * @param alpha skew (larger = more skewed); alpha <= 0 degrades to
     *              uniform
     */
    uint64_t nextZipf(uint64_t n, double alpha);

    /** Checkpoint the stream position (snapshot/component_state.cc). */
    template <class Ar> void io(Ar &ar);

  private:
    uint64_t state_[4];
};

} // namespace ladm

#endif // LADM_COMMON_RNG_HH
