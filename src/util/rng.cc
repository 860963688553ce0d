#include "rng.h"

#include <numeric>

#include "logging.h"

namespace ct::util {

namespace {

/** splitmix64, used to expand the seed into generator state. */
std::uint64_t
splitmix(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : state)
        s = splitmix(x);
}

void
Rng::zeroBound()
{
    fatal("Rng::nextBelow: zero bound");
}

std::int64_t
Rng::nextInRange(std::int64_t lo, std::int64_t hi)
{
    if (lo > hi)
        fatal("Rng::nextInRange: empty range");
    std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextBelow(span));
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::vector<std::uint64_t>
Rng::permutation(std::uint64_t n)
{
    std::vector<std::uint64_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    shuffle(perm);
    return perm;
}

} // namespace ct::util
