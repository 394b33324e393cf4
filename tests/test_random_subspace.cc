/**
 * @file
 * Unit tests for the random subspace ensemble.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/logging.hh"
#include "common/random.hh"
#include "ml/random_subspace.hh"

namespace
{

using namespace xpro;

/**
 * Synthetic pool data: only a few "informative" columns carry the
 * class signal; the rest are noise, as in the real 48-feature pool
 * where only some features suit a given biosignal.
 */
LabeledData
poolData(Rng &rng, size_t n, size_t pool, std::set<size_t> informative)
{
    LabeledData data;
    for (size_t i = 0; i < n; ++i) {
        const bool positive = i % 2 == 0;
        std::vector<double> row(pool);
        for (size_t c = 0; c < pool; ++c) {
            if (informative.count(c)) {
                row[c] = rng.gaussian(positive ? 1.0 : -1.0, 0.35);
            } else {
                row[c] = rng.gaussian(0.0, 1.0);
            }
        }
        data.rows.push_back(std::move(row));
        data.labels.push_back(positive ? 1 : -1);
    }
    return data;
}

RandomSubspaceConfig
smallConfig(uint64_t seed)
{
    RandomSubspaceConfig config;
    config.subspaceDimension = 6;
    config.candidates = 30;
    config.keepFraction = 0.2;
    config.svm.kernel = {KernelKind::Rbf, 0.5};
    config.svm.c = 5.0;
    config.seed = seed;
    return config;
}

TEST(RandomSubspaceTest, LearnsInformativePool)
{
    Rng rng(401);
    const LabeledData train = poolData(rng, 160, 24, {1, 5, 9, 17});
    const LabeledData test = poolData(rng, 80, 24, {1, 5, 9, 17});
    const RandomSubspace ensemble =
        RandomSubspace::train(train, smallConfig(11));
    EXPECT_GE(ensemble.accuracy(test), 0.85);
}

TEST(RandomSubspaceTest, KeepsRequestedMemberCount)
{
    Rng rng(403);
    const LabeledData train = poolData(rng, 120, 24, {0, 3});
    RandomSubspaceConfig config = smallConfig(13);
    config.candidates = 20;
    config.keepFraction = 0.25;
    const RandomSubspace ensemble =
        RandomSubspace::train(train, config);
    EXPECT_EQ(ensemble.bases().size(), 5u);
    EXPECT_EQ(ensemble.fusionWeights().size(), 5u);
}

TEST(RandomSubspaceTest, BasesUseRequestedDimension)
{
    Rng rng(405);
    const LabeledData train = poolData(rng, 120, 24, {0, 3});
    const RandomSubspace ensemble =
        RandomSubspace::train(train, smallConfig(15));
    for (const BaseClassifier &base : ensemble.bases()) {
        EXPECT_EQ(base.featureIndices.size(), 6u);
        // Indices must be sorted, unique and within the pool.
        EXPECT_TRUE(std::is_sorted(base.featureIndices.begin(),
                                   base.featureIndices.end()));
        std::set<size_t> unique(base.featureIndices.begin(),
                                base.featureIndices.end());
        EXPECT_EQ(unique.size(), 6u);
        for (size_t idx : base.featureIndices)
            EXPECT_LT(idx, 24u);
        EXPECT_EQ(base.model.dimension(), 6u);
    }
}

TEST(RandomSubspaceTest, UsedFeaturesAreUnionOfBases)
{
    Rng rng(407);
    const LabeledData train = poolData(rng, 120, 24, {0, 3});
    const RandomSubspace ensemble =
        RandomSubspace::train(train, smallConfig(17));
    std::set<size_t> expected;
    for (const BaseClassifier &base : ensemble.bases())
        expected.insert(base.featureIndices.begin(),
                        base.featureIndices.end());
    const std::vector<size_t> used = ensemble.usedFeatureIndices();
    EXPECT_EQ(std::set<size_t>(used.begin(), used.end()), expected);
    EXPECT_TRUE(std::is_sorted(used.begin(), used.end()));
}

TEST(RandomSubspaceTest, SelectionPrefersAccurateBases)
{
    Rng rng(409);
    const LabeledData train = poolData(rng, 200, 24, {2, 7});
    RandomSubspaceConfig config = smallConfig(19);
    config.candidates = 40;
    config.keepFraction = 0.1;
    const RandomSubspace ensemble =
        RandomSubspace::train(train, config);
    // Kept members should be sorted by validation accuracy
    // (descending) and all predictive better than chance.
    const auto &bases = ensemble.bases();
    for (size_t i = 1; i < bases.size(); ++i)
        EXPECT_GE(bases[i - 1].validationAccuracy,
                  bases[i].validationAccuracy);
    EXPECT_GT(bases.front().validationAccuracy, 0.6);
}

TEST(RandomSubspaceTest, DeterministicGivenSeed)
{
    Rng rng(411);
    const LabeledData train = poolData(rng, 100, 16, {1});
    const RandomSubspace a =
        RandomSubspace::train(train, smallConfig(23));
    const RandomSubspace b =
        RandomSubspace::train(train, smallConfig(23));
    ASSERT_EQ(a.bases().size(), b.bases().size());
    for (size_t i = 0; i < a.bases().size(); ++i)
        EXPECT_EQ(a.bases()[i].featureIndices,
                  b.bases()[i].featureIndices);
}

TEST(RandomSubspaceTest, ScoreSignMatchesPrediction)
{
    Rng rng(413);
    const LabeledData train = poolData(rng, 100, 16, {1, 4});
    const RandomSubspace ensemble =
        RandomSubspace::train(train, smallConfig(29));
    for (size_t i = 0; i < 10; ++i) {
        const double s = ensemble.score(train.rows[i]);
        EXPECT_EQ(ensemble.predict(train.rows[i]), s >= 0.0 ? 1 : -1);
    }
}

TEST(RandomSubspaceTest, EnsembleBeatsWorstBase)
{
    Rng rng(415);
    const LabeledData train = poolData(rng, 160, 24, {2, 9, 13});
    const LabeledData test = poolData(rng, 120, 24, {2, 9, 13});
    const RandomSubspace ensemble =
        RandomSubspace::train(train, smallConfig(31));

    double worst_base = 1.0;
    for (const BaseClassifier &base : ensemble.bases()) {
        LabeledData projected;
        projected.labels = test.labels;
        for (const auto &row : test.rows) {
            std::vector<double> sub;
            for (size_t idx : base.featureIndices)
                sub.push_back(row[idx]);
            projected.rows.push_back(std::move(sub));
        }
        worst_base =
            std::min(worst_base, base.model.accuracy(projected));
    }
    EXPECT_GE(ensemble.accuracy(test) + 1e-9, worst_base);
}

TEST(RandomSubspaceTest, TrainingAccuracyMatchesAccuracyOnTrainingRows)
{
    // Pure-noise pools, so the ensemble misclassifies some training
    // rows and the accuracy is not trivially 1.
    for (uint64_t seed : {17u, 19u, 23u}) {
        Rng rng(410 + seed);
        const LabeledData train = poolData(rng, 90, 16, {});
        RandomSubspaceConfig config = smallConfig(seed);
        config.subspaceDimension = 3;
        const RandomSubspace ensemble =
            RandomSubspace::train(train, config);
        EXPECT_EQ(ensemble.trainingAccuracy(), ensemble.accuracy(train))
            << "seed " << seed;
        EXPECT_LT(ensemble.trainingAccuracy(), 1.0) << "seed " << seed;
    }
}

TEST(RandomSubspaceTest, SubspaceLargerThanPoolPanics)
{
    Rng rng(417);
    const LabeledData train = poolData(rng, 40, 4, {0});
    RandomSubspaceConfig config = smallConfig(37);
    config.subspaceDimension = 5;
    EXPECT_THROW(RandomSubspace::train(train, config), PanicError);
}

} // namespace
