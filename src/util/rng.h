/**
 * @file
 * Deterministic pseudo-random number generator (xoshiro256**).
 *
 * Workload generators must be reproducible across runs and platforms;
 * std::mt19937 distributions are not guaranteed to be portable, so we
 * provide our own distribution helpers on top of a fixed algorithm.
 */

#ifndef CT_UTIL_RNG_H
#define CT_UTIL_RNG_H

#include <cstdint>
#include <vector>

namespace ct::util {

/** Deterministic xoshiro256** generator with helper distributions. */
class Rng
{
  public:
    /** Seed the generator; the same seed yields the same stream. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        std::uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be positive. */
    std::uint64_t
    nextBelow(std::uint64_t bound)
    {
        if (bound == 0)
            zeroBound();
        return below(bound);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t nextInRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Fisher-Yates shuffle of @p values. */
    template <typename T>
    void
    shuffle(std::vector<T> &values)
    {
        for (std::size_t i = values.size(); i > 1; --i) {
            std::size_t j = below(i);
            std::swap(values[i - 1], values[j]);
        }
    }

    /** Random permutation of 0..n-1. */
    std::vector<std::uint64_t> permutation(std::uint64_t n);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /**
     * nextBelow() for a positive bound: rejection sampling against
     * modulo bias. The threshold `(0 - bound) % bound` is below
     * @p bound, so a draw at or above @p bound is accepted without
     * computing it; the draws taken are the same either way.
     */
    std::uint64_t
    below(std::uint64_t bound)
    {
        std::uint64_t r = next();
        if (r >= bound)
            return r % bound;
        std::uint64_t threshold = (0 - bound) % bound;
        while (r < threshold)
            r = next();
        return r % bound;
    }

    [[noreturn]] static void zeroBound();

    std::uint64_t state[4];
};

} // namespace ct::util

#endif // CT_UTIL_RNG_H
