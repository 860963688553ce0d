#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/rng.h"

namespace {

using ct::util::Rng;

TEST(Rng, SameSeedSameStream)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

/** nextBelow() as it was before the threshold skip: the threshold
 *  division on every call, drawing through the public next(). */
std::uint64_t
referenceNextBelow(Rng &rng, std::uint64_t bound)
{
    std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        std::uint64_t r = rng.next();
        if (r >= threshold)
            return r % bound;
    }
}

TEST(Rng, NextBelowMatchesReferenceDraws)
{
    // Same values and same draws consumed: the streams stay in step
    // across bounds that reject often (2^63 + 1) and never (1, 2).
    const std::uint64_t bounds[] = {1ULL,
                                    2ULL,
                                    3ULL,
                                    1ULL << 16,
                                    (1ULL << 63) + 1,
                                    ~0ULL};
    for (std::uint64_t seed : {1995ULL, 2718ULL, 7ULL}) {
        Rng fast(seed), ref(seed);
        for (std::uint64_t bound : bounds) {
            for (int i = 0; i < 2000; ++i)
                ASSERT_EQ(fast.nextBelow(bound),
                          referenceNextBelow(ref, bound))
                    << "seed " << seed << " bound " << bound;
            ASSERT_EQ(fast.next(), ref.next());
        }
    }
}

TEST(Rng, ShuffleMatchesReferenceFisherYates)
{
    for (std::uint64_t seed : {1995ULL, 2718ULL}) {
        Rng fast(seed), ref(seed);
        std::vector<std::uint64_t> a = fast.permutation(1000);
        std::vector<std::uint64_t> b(1000);
        for (std::uint64_t i = 0; i < b.size(); ++i)
            b[i] = i;
        for (std::size_t i = b.size(); i > 1; --i)
            std::swap(b[i - 1], b[referenceNextBelow(ref, i)]);
        EXPECT_EQ(a, b);
        EXPECT_EQ(fast.next(), ref.next());
    }
}

TEST(Rng, NextInRangeInclusive)
{
    Rng rng(7);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 500; ++i) {
        auto v = rng.nextInRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit with 500 draws
}

TEST(Rng, NextDoubleIsUnitInterval)
{
    Rng rng(99);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, PermutationIsAPermutation)
{
    Rng rng(3);
    auto perm = rng.permutation(257);
    std::set<std::uint64_t> seen(perm.begin(), perm.end());
    EXPECT_EQ(seen.size(), 257u);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 256u);
}

TEST(Rng, PermutationIsNotIdentity)
{
    Rng rng(3);
    auto perm = rng.permutation(1000);
    std::size_t fixed_points = 0;
    for (std::size_t i = 0; i < perm.size(); ++i)
        fixed_points += perm[i] == i;
    EXPECT_LT(fixed_points, 20u);
}

TEST(Rng, ShuffleKeepsElements)
{
    Rng rng(11);
    std::vector<int> v{1, 2, 3, 4, 5, 6};
    auto orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

} // namespace
