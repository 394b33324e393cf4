/**
 * @file
 * Tests for the fixed-point RBF-SVM and the end-to-end all-fixed
 * inference pipeline: the e^-t unit's accuracy, decision agreement
 * between the quantized and double-precision SVM, and the headline
 * check that the 32-bit fixed datapath (paper Section 4.4) preserves
 * the classifier's decisions on a real test case.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "core/fixed_pipeline.hh"
#include "data/testcases.hh"

namespace
{

using namespace xpro;

TEST(FixedExpTest, MatchesDoubleExponential)
{
    for (double t = 0.0; t <= 12.0; t += 0.037) {
        const double expected = std::exp(-t);
        const double got =
            fixedExpNeg(Fixed::fromDouble(t)).toDouble();
        EXPECT_NEAR(got, expected, 4e-4) << "t=" << t;
    }
}

TEST(FixedExpTest, BoundaryBehaviour)
{
    EXPECT_DOUBLE_EQ(fixedExpNeg(Fixed()).toDouble(), 1.0);
    // Negative inputs clamp to e^0.
    EXPECT_DOUBLE_EQ(fixedExpNeg(Fixed::fromDouble(-3.0)).toDouble(),
                     1.0);
    // Deep tail underflows to zero on the Q16.16 grid.
    EXPECT_DOUBLE_EQ(fixedExpNeg(Fixed::fromDouble(30.0)).toDouble(),
                     0.0);
    // Monotone non-increasing along the useful range.
    Fixed previous = Fixed::fromInt(1);
    for (double t = 0.0; t < 16.0; t += 0.25) {
        const Fixed v = fixedExpNeg(Fixed::fromDouble(t));
        EXPECT_LE(v.raw(), previous.raw()) << "t=" << t;
        previous = v;
    }
}

TEST(FixedSvmTest, DecisionsAgreeWithDoubleModel)
{
    Rng rng(2001);
    // Train a double SVM on separable 2-D data.
    LabeledData data;
    for (int i = 0; i < 120; ++i) {
        const bool positive = i % 2 == 0;
        const std::vector<double> row = {
            rng.gaussian(positive ? 0.7 : 0.3, 0.1),
            rng.gaussian(positive ? 0.3 : 0.7, 0.1)};
        data.rows.push_back(row);
        data.labels.push_back(positive ? 1 : -1);
    }
    SvmConfig config;
    config.kernel = {KernelKind::Rbf, 2.0};
    config.c = 10.0;
    const Svm model = Svm::train(data, config);
    const FixedSvm fixed(model);
    EXPECT_EQ(fixed.supportVectorCount(),
              model.supportVectorCount());

    size_t agree = 0;
    const size_t n = 500;
    for (size_t i = 0; i < n; ++i) {
        const std::vector<double> x = {rng.uniform(0.0, 1.0),
                                       rng.uniform(0.0, 1.0)};
        const std::vector<Fixed> xq = {Fixed::fromDouble(x[0]),
                                       Fixed::fromDouble(x[1])};
        agree += model.predict(x) == fixed.predict(xq);
    }
    // Disagreements can only occur within a hair of the boundary.
    EXPECT_GT(static_cast<double>(agree) / n, 0.98);
}

TEST(FixedSvmTest, DecisionValuesTrackDoubleModel)
{
    Rng rng(2003);
    LabeledData data;
    for (int i = 0; i < 60; ++i) {
        const bool positive = i % 2 == 0;
        const std::vector<double> row = {
            rng.gaussian(positive ? 0.8 : 0.2, 0.1)};
        data.rows.push_back(row);
        data.labels.push_back(positive ? 1 : -1);
    }
    SvmConfig config;
    config.kernel = {KernelKind::Rbf, 1.0};
    const Svm model = Svm::train(data, config);
    const FixedSvm fixed(model);
    for (int i = 0; i < 50; ++i) {
        const std::vector<double> x = {rng.uniform(0.0, 1.0)};
        EXPECT_NEAR(fixed.decision({Fixed::fromDouble(x[0])}).toDouble(),
                    model.decision(x), 0.02);
    }
}

TEST(FixedSvmTest, LinearKernelIsRejected)
{
    Rng rng(2005);
    LabeledData data;
    for (int i = 0; i < 20; ++i) {
        const std::vector<double> row = {
            rng.gaussian(i % 2 ? 1.0 : -1.0, 0.2)};
        data.rows.push_back(row);
        data.labels.push_back(i % 2 ? 1 : -1);
    }
    SvmConfig config;
    config.kernel = {KernelKind::Linear, 0.0};
    const Svm model = Svm::train(data, config);
    EXPECT_THROW(FixedSvm{model}, PanicError);
}

TEST(FixedPipelineTest, EndToEndAgreementOnRealCase)
{
    // The headline hardware-faithfulness check: quantize a trained
    // pipeline and classify real segments entirely on the Q16.16
    // grid. The paper's 32-bit fixed-number choice must preserve
    // nearly every decision.
    const SignalDataset dataset = makeTestCase(TestCase::C1, 9);
    EngineConfig config;
    config.subspace.candidates = 25;
    config.subspace.keepFraction = 0.2;
    TrainingOptions options;
    options.maxTrainingSegments = 150;
    options.seed = 99;
    const TrainedPipeline pipeline =
        trainPipeline(dataset, config, options);
    const FixedPipeline fixed(pipeline);

    const double agreement =
        FixedPipeline::agreement(pipeline, fixed, dataset, 200);
    EXPECT_GT(agreement, 0.95);
}

TEST(FixedPipelineTest, FixedFeaturesMatchQuantizedReference)
{
    const SignalDataset dataset = makeTestCase(TestCase::E1, 9);
    EngineConfig config;
    config.subspace.candidates = 12;
    config.subspace.keepFraction = 0.25;
    TrainingOptions options;
    options.maxTrainingSegments = 80;
    const TrainedPipeline pipeline =
        trainPipeline(dataset, config, options);
    const FixedPipeline fixed(pipeline);

    // Spot-check: fixed features track the double extractor within
    // quantization error on a few segments.
    for (size_t s = 0; s < 5; ++s) {
        const auto &samples = dataset.segments[s].samples;
        const std::vector<Fixed> fixed_features =
            fixed.extractFeatures(samples);
        const std::vector<double> ref =
            pipeline.extractor.extractAll(samples);
        ASSERT_EQ(fixed_features.size(), ref.size());
        for (size_t c = 0; c < ref.size(); ++c) {
            EXPECT_NEAR(fixed_features[c].toDouble(), ref[c],
                        0.15 * (1.0 + std::fabs(ref[c])))
                << "feature " << featureFullName(featureFromIndex(c));
        }
    }
}

} // namespace
