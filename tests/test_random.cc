/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"

namespace
{

using xpro::Rng;

TEST(RandomTest, SameSeedSameStream)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RandomTest, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int differences = 0;
    for (int i = 0; i < 32; ++i)
        differences += a.next() != b.next();
    EXPECT_GT(differences, 0);
}

TEST(RandomTest, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(RandomTest, UniformRangeRespectsBounds)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(-3.0, 5.0);
        EXPECT_GE(v, -3.0);
        EXPECT_LT(v, 5.0);
    }
}

TEST(RandomTest, UniformMeanIsCentered)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RandomTest, BelowStaysBelow)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(RandomTest, BelowCoversAllResidues)
{
    Rng rng(15);
    std::set<uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.below(10));
    EXPECT_EQ(seen.size(), 10u);
}

TEST(RandomTest, RangeInclusive)
{
    Rng rng(17);
    std::set<int64_t> seen;
    for (int i = 0; i < 500; ++i) {
        const int64_t v = rng.range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(RandomTest, GaussianMomentsRoughlyStandard)
{
    Rng rng(19);
    double sum = 0.0;
    double sum_sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.gaussian();
        sum += v;
        sum_sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RandomTest, GaussianScaled)
{
    Rng rng(21);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RandomTest, SkipGaussiansLeavesTheStreamOfKGaussianCalls)
{
    // From an uncached state (fresh) and a cached one (one gaussian
    // drawn), skipping k must leave the same generator as k draws:
    // the same following gaussians, cached half included, and the
    // same raw words after them.
    for (size_t warmup : {0u, 1u, 2u, 3u}) {
        for (size_t k = 0; k <= 5; ++k) {
            Rng drawn(77 + warmup);
            Rng skipped(77 + warmup);
            for (size_t w = 0; w < warmup; ++w) {
                drawn.gaussian();
                skipped.gaussian();
            }
            for (size_t i = 0; i < k; ++i)
                drawn.gaussian();
            skipped.skipGaussians(k);
            for (int i = 0; i < 3; ++i) {
                EXPECT_EQ(std::bit_cast<uint64_t>(skipped.gaussian()),
                          std::bit_cast<uint64_t>(drawn.gaussian()))
                    << "warmup=" << warmup << " k=" << k;
            }
            EXPECT_EQ(skipped.next(), drawn.next())
                << "warmup=" << warmup << " k=" << k;
        }
    }
}

TEST(RandomTest, GaussiansEqualGaussianCallsExactly)
{
    // A block of n must give the bits of n gaussian() calls and leave
    // the same stream: from an uncached and a cached state (one
    // gaussian drawn), twice over, each time followed by a skip and a
    // uniform() draw, which must see the same generator too.
    for (size_t n : {0u, 1u, 2u, 3u, 127u, 128u, 129u, 1000u}) {
        for (size_t warmup : {0u, 1u}) {
            Rng batched(91 + n);
            Rng single(91 + n);
            for (size_t w = 0; w < warmup; ++w) {
                batched.gaussian();
                single.gaussian();
            }
            std::vector<double> block(n);
            for (size_t skip : {0u, 3u}) {
                batched.gaussians(block.data(), n);
                for (size_t i = 0; i < n; ++i) {
                    ASSERT_EQ(std::bit_cast<uint64_t>(block[i]),
                              std::bit_cast<uint64_t>(single.gaussian()))
                        << "n=" << n << " warmup=" << warmup
                        << " skip=" << skip << " i=" << i;
                }
                batched.skipGaussians(skip);
                single.skipGaussians(skip);
                EXPECT_EQ(std::bit_cast<uint64_t>(batched.uniform()),
                          std::bit_cast<uint64_t>(single.uniform()))
                    << "n=" << n << " warmup=" << warmup
                    << " skip=" << skip;
            }
            for (int i = 0; i < 3; ++i) {
                EXPECT_EQ(std::bit_cast<uint64_t>(batched.gaussian()),
                          std::bit_cast<uint64_t>(single.gaussian()))
                    << "n=" << n << " warmup=" << warmup;
            }
            EXPECT_EQ(batched.next(), single.next())
                << "n=" << n << " warmup=" << warmup;
        }
    }
}

TEST(RandomTest, ChanceExtremes)
{
    Rng rng(23);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(RandomTest, ShufflePreservesElements)
{
    Rng rng(25);
    std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<int> shuffled = items;
    rng.shuffle(shuffled);
    std::sort(shuffled.begin(), shuffled.end());
    EXPECT_EQ(shuffled, items);
}

TEST(RandomTest, SampleWithoutReplacementIsDistinct)
{
    Rng rng(27);
    for (int trial = 0; trial < 50; ++trial) {
        const auto sample = rng.sampleWithoutReplacement(48, 12);
        EXPECT_EQ(sample.size(), 12u);
        std::set<size_t> unique(sample.begin(), sample.end());
        EXPECT_EQ(unique.size(), 12u);
        for (size_t idx : sample)
            EXPECT_LT(idx, 48u);
    }
}

TEST(RandomTest, SampleFullPoolIsPermutation)
{
    Rng rng(29);
    const auto sample = rng.sampleWithoutReplacement(10, 10);
    std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 10u);
}

TEST(RandomTest, SampleTooManyPanics)
{
    Rng rng(31);
    EXPECT_THROW(rng.sampleWithoutReplacement(5, 6), xpro::PanicError);
}

} // namespace
