/**
 * @file
 * Unit tests for stratified splitting and cross-validation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "ml/crossval.hh"

namespace
{

using namespace xpro;

std::vector<int>
balancedLabels(size_t n)
{
    std::vector<int> labels(n);
    for (size_t i = 0; i < n; ++i)
        labels[i] = (i % 2) ? 1 : -1;
    return labels;
}

TEST(CrossvalTest, SplitCoversAllIndicesOnce)
{
    Rng rng(301);
    const std::vector<int> labels = balancedLabels(100);
    const Split split = stratifiedSplit(labels, 0.75, rng);
    std::set<size_t> all;
    all.insert(split.trainIndices.begin(), split.trainIndices.end());
    all.insert(split.testIndices.begin(), split.testIndices.end());
    EXPECT_EQ(all.size(), 100u);
    EXPECT_EQ(split.trainIndices.size() + split.testIndices.size(),
              100u);
}

TEST(CrossvalTest, SplitRespectsFraction)
{
    Rng rng(303);
    const std::vector<int> labels = balancedLabels(200);
    const Split split = stratifiedSplit(labels, 0.75, rng);
    EXPECT_EQ(split.trainIndices.size(), 150u);
    EXPECT_EQ(split.testIndices.size(), 50u);
}

TEST(CrossvalTest, SplitIsStratified)
{
    Rng rng(305);
    // Unbalanced: 30 positives, 90 negatives.
    std::vector<int> labels(120, -1);
    for (size_t i = 0; i < 30; ++i)
        labels[i] = 1;
    const Split split = stratifiedSplit(labels, 2.0 / 3.0, rng);
    size_t train_pos = 0;
    for (size_t idx : split.trainIndices)
        train_pos += labels[idx] == 1;
    EXPECT_EQ(train_pos, 20u);
    EXPECT_EQ(split.trainIndices.size(), 80u);
}

TEST(CrossvalTest, BadFractionPanics)
{
    Rng rng(307);
    const std::vector<int> labels = balancedLabels(10);
    EXPECT_THROW(stratifiedSplit(labels, 0.0, rng), PanicError);
    EXPECT_THROW(stratifiedSplit(labels, 1.0, rng), PanicError);
}

TEST(CrossvalTest, FoldsPartitionIndices)
{
    Rng rng(309);
    const std::vector<int> labels = balancedLabels(103);
    const auto folds = stratifiedFolds(labels, 10, rng);
    EXPECT_EQ(folds.size(), 10u);
    std::set<size_t> all;
    size_t total = 0;
    for (const auto &fold : folds) {
        all.insert(fold.begin(), fold.end());
        total += fold.size();
    }
    EXPECT_EQ(all.size(), 103u);
    EXPECT_EQ(total, 103u);
    // Folds should be nearly equal in size.
    for (const auto &fold : folds) {
        EXPECT_GE(fold.size(), 9u);
        EXPECT_LE(fold.size(), 12u);
    }
}

TEST(CrossvalTest, FoldsKeepClassBalance)
{
    Rng rng(311);
    const std::vector<int> labels = balancedLabels(100);
    const auto folds = stratifiedFolds(labels, 5, rng);
    for (const auto &fold : folds) {
        size_t pos = 0;
        for (size_t idx : fold)
            pos += labels[idx] == 1;
        EXPECT_EQ(pos, 10u);
    }
}

TEST(CrossvalTest, TooFewFoldsPanics)
{
    Rng rng(313);
    EXPECT_THROW(stratifiedFolds(balancedLabels(10), 1, rng),
                 PanicError);
}

TEST(CrossvalTest, SubsetMaterializesRows)
{
    LabeledData data;
    data.rows = {{0.0}, {1.0}, {2.0}, {3.0}};
    data.labels = {1, -1, 1, -1};
    const LabeledData sub = subset(data, {2, 0});
    ASSERT_EQ(sub.size(), 2u);
    EXPECT_DOUBLE_EQ(sub.rows[0][0], 2.0);
    EXPECT_EQ(sub.labels[1], 1);
}

TEST(CrossvalTest, SubsetOutOfRangePanics)
{
    LabeledData data;
    data.rows = {{0.0}};
    data.labels = {1};
    EXPECT_THROW(subset(data, {1}), PanicError);
}

TEST(CrossvalTest, CrossValidatedAccuracyOnSeparableData)
{
    Rng data_rng(315);
    LabeledData data;
    for (size_t i = 0; i < 60; ++i) {
        const bool positive = i % 2 == 0;
        const std::vector<double> row = {
            data_rng.gaussian(positive ? 2.0 : -2.0, 0.4)};
        data.rows.push_back(row);
        data.labels.push_back(positive ? 1 : -1);
    }
    SvmConfig config;
    config.kernel = {KernelKind::Rbf, 0.5};
    Rng cv_rng(317);
    const double acc = crossValidatedAccuracy(data, config, 5, cv_rng);
    EXPECT_GE(acc, 0.9);
    EXPECT_LE(acc, 1.0);
}

} // namespace
