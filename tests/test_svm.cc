/**
 * @file
 * Unit tests for the SMO-trained binary SVM.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "ml/svm.hh"

namespace
{

using namespace xpro;

LabeledData
linearlySeparable(Rng &rng, size_t per_class, double gap)
{
    LabeledData data;
    for (size_t i = 0; i < per_class; ++i) {
        const std::vector<double> positive = {rng.gaussian(gap, 0.5),
                                              rng.gaussian(gap, 0.5)};
        data.rows.push_back(positive);
        data.labels.push_back(1);
        const std::vector<double> negative = {rng.gaussian(-gap, 0.5),
                                              rng.gaussian(-gap, 0.5)};
        data.rows.push_back(negative);
        data.labels.push_back(-1);
    }
    return data;
}

/** XOR pattern: not linearly separable, RBF-separable. */
LabeledData
xorData(Rng &rng, size_t per_cluster)
{
    LabeledData data;
    const double centers[4][2] = {
        {1.0, 1.0}, {-1.0, -1.0}, {1.0, -1.0}, {-1.0, 1.0},
    };
    for (int c = 0; c < 4; ++c) {
        for (size_t i = 0; i < per_cluster; ++i) {
            const std::vector<double> row = {
                centers[c][0] + 0.2 * rng.gaussian(),
                centers[c][1] + 0.2 * rng.gaussian(),
            };
            data.rows.push_back(row);
            data.labels.push_back(c < 2 ? 1 : -1);
        }
    }
    return data;
}

TEST(SvmTest, LinearKernelSeparatesLinearData)
{
    Rng rng(201);
    const LabeledData data = linearlySeparable(rng, 40, 2.0);
    SvmConfig config;
    config.kernel = {KernelKind::Linear, 0.0};
    const Svm model = Svm::train(data, config);
    EXPECT_GE(model.accuracy(data), 0.98);
}

TEST(SvmTest, RbfKernelSolvesXor)
{
    Rng rng(203);
    const LabeledData data = xorData(rng, 25);
    SvmConfig config;
    config.kernel = {KernelKind::Rbf, 1.0};
    config.c = 10.0;
    const Svm model = Svm::train(data, config);
    EXPECT_GE(model.accuracy(data), 0.97);
}

TEST(SvmTest, LinearKernelFailsOnXor)
{
    Rng rng(205);
    const LabeledData data = xorData(rng, 25);
    SvmConfig config;
    config.kernel = {KernelKind::Linear, 0.0};
    const Svm model = Svm::train(data, config);
    // Linear separator cannot exceed ~75% on balanced XOR clusters.
    EXPECT_LE(model.accuracy(data), 0.8);
}

TEST(SvmTest, GeneralizesToHeldOutData)
{
    Rng rng(207);
    const LabeledData train = linearlySeparable(rng, 50, 1.5);
    const LabeledData test = linearlySeparable(rng, 50, 1.5);
    SvmConfig config;
    config.kernel = {KernelKind::Rbf, 0.5};
    const Svm model = Svm::train(train, config);
    EXPECT_GE(model.accuracy(test), 0.95);
}

TEST(SvmTest, DecisionSignMatchesPrediction)
{
    Rng rng(209);
    const LabeledData data = linearlySeparable(rng, 30, 2.0);
    SvmConfig config;
    config.kernel = {KernelKind::Rbf, 0.5};
    const Svm model = Svm::train(data, config);
    for (const auto &row : data.rows) {
        const double d = model.decision(row);
        EXPECT_EQ(model.predict(row), d >= 0.0 ? 1 : -1);
    }
}

TEST(SvmTest, SupportVectorsAreSubsetOfTraining)
{
    Rng rng(211);
    const LabeledData data = linearlySeparable(rng, 30, 2.0);
    SvmConfig config;
    config.kernel = {KernelKind::Rbf, 0.5};
    const Svm model = Svm::train(data, config);
    EXPECT_GT(model.supportVectorCount(), 0u);
    EXPECT_LE(model.supportVectorCount(), data.size());
    EXPECT_EQ(model.dimension(), 2u);
}

TEST(SvmTest, WellSeparatedDataUsesFewSupportVectors)
{
    Rng rng(213);
    const LabeledData easy = linearlySeparable(rng, 50, 4.0);
    const LabeledData hard = linearlySeparable(rng, 50, 0.4);
    SvmConfig config;
    config.kernel = {KernelKind::Rbf, 0.5};
    const Svm easy_model = Svm::train(easy, config);
    const Svm hard_model = Svm::train(hard, config);
    // Margin violations pile up support vectors on overlapping data.
    EXPECT_LT(easy_model.supportVectorCount(),
              hard_model.supportVectorCount());
}

TEST(SvmTest, SingleClassIsFatal)
{
    LabeledData data;
    data.rows = {{0.0}, {1.0}};
    data.labels = {1, 1};
    SvmConfig config;
    EXPECT_THROW(Svm::train(data, config), FatalError);
}

TEST(SvmTest, BadLabelPanics)
{
    LabeledData data;
    data.rows = {{0.0}, {1.0}};
    data.labels = {1, 0};
    SvmConfig config;
    EXPECT_THROW(Svm::train(data, config), PanicError);
}

TEST(SvmTest, DimensionMismatchPanics)
{
    Rng rng(215);
    const LabeledData data = linearlySeparable(rng, 10, 2.0);
    SvmConfig config;
    const Svm model = Svm::train(data, config);
    const std::vector<double> too_wide = {1.0, 2.0, 3.0};
    EXPECT_THROW(model.decision(too_wide), PanicError);
}

TEST(SvmTest, DeterministicTraining)
{
    Rng rng(217);
    const LabeledData data = linearlySeparable(rng, 30, 1.0);
    SvmConfig config;
    config.kernel = {KernelKind::Rbf, 0.7};
    const Svm a = Svm::train(data, config);
    const Svm b = Svm::train(data, config);
    EXPECT_EQ(a.supportVectorCount(), b.supportVectorCount());
    EXPECT_DOUBLE_EQ(a.bias(), b.bias());
}

/** Accuracy should hold across the C sweep on separable data. */
class SvmRegularizationTest : public ::testing::TestWithParam<double>
{
};

TEST_P(SvmRegularizationTest, SeparableDataStaysAccurate)
{
    Rng rng(219);
    const LabeledData data = linearlySeparable(rng, 40, 2.5);
    SvmConfig config;
    config.kernel = {KernelKind::Rbf, 0.5};
    config.c = GetParam();
    const Svm model = Svm::train(data, config);
    EXPECT_GE(model.accuracy(data), 0.95) << "C=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(CSweep, SvmRegularizationTest,
                         ::testing::Values(0.1, 1.0, 10.0, 100.0));

} // namespace
