/**
 * @file
 * The seeded byte mutator shared by the fuzz tests (wire frames in
 * test_wire.cc, command lines in test_options.cc). Deterministic: the
 * same Rng seed yields the same mutants, so a failure names its case.
 */

#ifndef LADM_TESTS_MUTATE_HH
#define LADM_TESTS_MUTATE_HH

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hh"

namespace ladm
{
namespace mutate
{

/** Flip one random bit in each of 1..@p max_flips bytes at or past @p from. */
inline void
flipBits(Rng &rng, std::string &s, size_t from, uint64_t max_flips)
{
    if (s.size() <= from)
        return;
    for (uint64_t k = 1 + rng.nextBounded(max_flips); k > 0; --k)
        s[from + rng.nextBounded(s.size() - from)] ^=
            static_cast<char>(1u << rng.nextBounded(8));
}

/** Cut @p s to a random length shorter than it. */
inline void
truncate(Rng &rng, std::string &s)
{
    s.resize(rng.nextBounded(s.size()));
}

/** Up to @p max sorted distinct cut points strictly inside [0, n). */
inline std::vector<size_t>
randomCuts(Rng &rng, size_t n, int max)
{
    std::vector<size_t> cuts;
    const int k = n > 1 ? static_cast<int>(rng.nextBounded(max + 1)) : 0;
    for (int i = 0; i < k; ++i)
        cuts.push_back(1 + rng.nextBounded(n - 1));
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    return cuts;
}

} // namespace mutate
} // namespace ladm

#endif // LADM_TESTS_MUTATE_HH
