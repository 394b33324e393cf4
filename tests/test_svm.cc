/**
 * @file
 * Unit tests for the SMO-trained binary SVM, and a convergence oracle
 * that re-solves every candidate training of the paper's cases.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/simd.hh"
#include "core/pipeline.hh"
#include "data/testcases.hh"
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

/**
 * The decision values training returns for its own rows are
 * decisionBatch() on those rows, bit for bit, for both kernels and
 * across the C sweep (few to many bounded multipliers).
 */
TEST(SvmTest, FitDecisionsMatchDecisionBatchExactly)
{
    Rng rng(221);
    for (KernelKind kind : {KernelKind::Rbf, KernelKind::Linear}) {
        for (double c : {0.1, 1.0, 10.0}) {
            LabeledData data = linearlySeparable(rng, 40, 0.6);
            // A duplicated sample and an all-zero one.
            data.rows.push_back(data.rows[3]);
            data.labels.push_back(data.labels[3]);
            data.rows.push_back(std::vector<double>{0.0, 0.0});
            data.labels.push_back(-1);
            SvmConfig config;
            config.kernel = {kind, 0.7};
            config.c = c;
            std::vector<double> fit;
            const Svm model = Svm::train(data, config, &fit);
            const std::vector<double> batch =
                model.decisionBatch(data.rows);
            ASSERT_EQ(fit.size(), data.size());
            ASSERT_GT(model.supportVectorCount(), 0u);
            EXPECT_EQ(0, std::memcmp(fit.data(), batch.data(),
                                     fit.size() * sizeof(double)))
                << config.kernel.name() << " C=" << c;
        }
    }
}

/** The bit pattern of @p v, so -0.0 and NaN compare exactly. */
uint64_t
bitsOf(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

/**
 * decision() and decisionBatch() equal an independent sum over the
 * scalar parts, bit for bit: bias + sum_k w_k * K(x, sv_k) in
 * support-vector order, the RBF formed as rbfFromParts(gamma, |x|^2,
 * |sv_k|^2, x.sv_k) from the scalar references and the linear kernel
 * as the bare dot. Support-vector counts fall on and off the SIMD
 * tile width, down to a single one; the probes include an all-zero
 * row and a copy of a support vector.
 */
TEST(SvmTest, DecisionMatchesScalarPartsExactly)
{
    Rng rng(223);
    for (KernelKind kind : {KernelKind::Rbf, KernelKind::Linear}) {
        const Kernel kernel{kind, 0.37};
        for (size_t count : {1u, 2u, 7u, 8u, 9u, 15u, 17u, 43u}) {
            for (size_t dims : {1u, 3u, 5u, 11u}) {
                FlatMatrix svs(count, dims);
                std::vector<double> weights(count);
                for (size_t k = 0; k < count; ++k) {
                    for (size_t d = 0; d < dims; ++d)
                        svs.rowData(k)[d] = rng.gaussian();
                    weights[k] = rng.gaussian();
                }
                const double bias = rng.gaussian();
                const Svm model(kernel, bias, svs, weights);
                ASSERT_EQ(model.supportVectorCount(), count);
                EXPECT_EQ(model.supportVectors(), svs);

                FlatMatrix probe(6, dims);
                for (size_t i = 1; i < probe.size(); ++i) {
                    for (size_t d = 0; d < dims; ++d)
                        probe.rowData(i)[d] = rng.gaussian();
                }
                std::copy_n(svs.rowData(count - 1), dims,
                            probe.rowData(probe.size() - 1));
                const std::vector<double> batch =
                    model.decisionBatch(probe);
                ASSERT_EQ(batch.size(), probe.size());

                const std::string what =
                    kernel.name() + " svs=" + std::to_string(count) +
                    " dims=" + std::to_string(dims);
                for (size_t i = 0; i < probe.size(); ++i) {
                    const double *x = probe.rowData(i);
                    const double x_norm =
                        scalar_ref::squaredNorm(x, dims);
                    double expected = bias;
                    for (size_t k = 0; k < count; ++k) {
                        const double *sv = svs.rowData(k);
                        const double dot = scalar_ref::dot(x, sv, dims);
                        expected +=
                            weights[k] *
                            (kind == KernelKind::Rbf
                                 ? rbfFromParts(
                                       kernel.gamma, x_norm,
                                       scalar_ref::squaredNorm(sv, dims),
                                       dot)
                                 : dot);
                    }
                    EXPECT_EQ(bitsOf(model.decision(probe.row(i))),
                              bitsOf(expected))
                        << what << " row " << i;
                    EXPECT_EQ(bitsOf(batch[i]), bitsOf(expected))
                        << what << " row " << i;
                }
            }
        }
    }
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

/**
 * The maximal violating pair's gap, recomputed from scratch:
 * max over I_up of -E_t plus max over I_low of E_t, with
 * E_t = sum_s alpha_s y_s K_ts - y_t.
 */
double
maxViolatingPairGap(GramRows &gram, const std::vector<int> &y,
                    const std::vector<double> &alpha, double c)
{
    const double inf = std::numeric_limits<double>::infinity();
    double up = -inf;
    double low = -inf;
    for (size_t t = 0; t < y.size(); ++t) {
        const double *row = gram.row(t);
        double e = -static_cast<double>(y[t]);
        for (size_t s = 0; s < y.size(); ++s)
            e += alpha[s] * y[s] * row[s];
        const bool positive = y[t] > 0;
        if (positive ? alpha[t] < c : alpha[t] > 0.0)
            up = std::max(up, -e);
        if (positive ? alpha[t] > 0.0 : alpha[t] < c)
            low = std::max(low, e);
    }
    return up + low;
}

using CandidateFn = std::function<void(
    const std::vector<size_t> &subspace, const LabeledData &fit)>;

/**
 * Every candidate training trainPipeline runs for one dataset: the
 * same split, scaling, validation hold-out and subspace draws as
 * trainPipeline and RandomSubspace::train, handed to @p fn as the
 * subspace and its projected fit set.
 */
void
forEachCandidate(const SignalDataset &dataset,
                 const EngineConfig &config,
                 const TrainingOptions &options, const CandidateFn &fn)
{
    std::vector<int> labels;
    for (const Segment &segment : dataset.segments)
        labels.push_back(segment.label);
    const Split split = trainingSplit(labels, options);
    const FeatureExtractor extractor(config.wavelet);
    LabeledData train;
    train.rows = FlatMatrix(0, featurePoolSize);
    for (size_t idx : split.trainIndices) {
        train.rows.push_back(
            extractor.extractAll(dataset.segments[idx].samples));
        train.labels.push_back(labels[idx]);
    }
    FeatureScaler scaler;
    scaler.fit(train.rows);
    scaler.transformRowsInPlace(train.rows);

    Rng rng(options.seed ^ 0xABCDEF);
    const Split inner = stratifiedSplit(train.labels, 0.8, rng);
    LabeledData fit_set;
    fit_set.rows = FlatMatrix(0, featurePoolSize);
    for (size_t idx : inner.trainIndices) {
        fit_set.rows.push_back(train.rows.row(idx));
        fit_set.labels.push_back(train.labels[idx]);
    }
    for (size_t c = 0; c < config.subspace.candidates; ++c) {
        std::vector<size_t> subspace = rng.sampleWithoutReplacement(
            featurePoolSize, config.subspace.subspaceDimension);
        std::sort(subspace.begin(), subspace.end());
        LabeledData projected;
        projected.labels = fit_set.labels;
        projected.rows =
            RandomSubspace::projectRows(fit_set.rows, subspace);
        fn(subspace, projected);
    }
}

/**
 * Every candidate SVM of the six cases at the fleet's settings (40
 * candidates, at most 250 training segments, seed i + 1) and of C1 at
 * the defaults trains until the gap closes: re-solving its Gram gives
 * multipliers inside the box, on the equality constraint, with a
 * from-scratch gap at most the tolerance. Each kept ensemble member
 * of the real pipeline is one of these solves, so the replayed
 * problems are the pipeline's own.
 */
TEST(SvmTest, TrainingClosesTheMaxViolatingPairGap)
{
    struct Run
    {
        TestCase tc;
        uint64_t seed;
        size_t candidates;
        size_t maxTrain;
    };
    std::vector<Run> runs;
    for (size_t i = 0; i < allTestCases.size(); ++i)
        runs.push_back({allTestCases[i], i + 1, 40, 250});
    runs.push_back({TestCase::C1, TrainingOptions{}.seed, 100, 0});

    for (const Run &run : runs) {
        EngineConfig config;
        config.subspace.candidates = run.candidates;
        TrainingOptions options;
        options.seed = run.seed;
        options.maxTrainingSegments = run.maxTrain;
        const SignalDataset dataset = makeTestCase(run.tc, run.seed);
        const SvmConfig &svm = config.subspace.svm;
        const std::string name = std::string(testCaseInfo(run.tc).symbol) +
                                 " seed " + std::to_string(run.seed);

        std::vector<std::pair<std::vector<size_t>, size_t>> svs;
        size_t solved = 0;
        forEachCandidate(
            dataset, config, options,
            [&](const std::vector<size_t> &subspace,
                const LabeledData &fit) {
                GramRows gram;
                gram.bind(svm.kernel, fit.rows);
                const SmoSolution sol =
                    solveSmo(gram, fit.labels, svm.c, svm.tolerance);
                EXPECT_FALSE(sol.capped) << name;
                double balance = 0.0;
                size_t count = 0;
                for (size_t t = 0; t < fit.size(); ++t) {
                    EXPECT_GE(sol.alpha[t], 0.0) << name;
                    EXPECT_LE(sol.alpha[t], svm.c) << name;
                    balance += sol.alpha[t] * fit.labels[t];
                    count += sol.alpha[t] > 1e-9;
                    // A multiplier moves only in a step that built
                    // its sample's row.
                    if (sol.alpha[t] > 0.0) {
                        EXPECT_TRUE(gram.built(t)) << name;
                    }
                }
                EXPECT_NEAR(balance, 0.0, 1e-9) << name;
                EXPECT_LE(maxViolatingPairGap(gram, fit.labels,
                                              sol.alpha, svm.c),
                          svm.tolerance)
                    << name << " candidate " << solved;
                svs.emplace_back(subspace, count);
                ++solved;
            });
        EXPECT_EQ(solved, run.candidates) << name;

        const TrainedPipeline pipeline =
            trainPipeline(dataset, config, options);
        for (const BaseClassifier &base : pipeline.ensemble.bases()) {
            const std::pair<std::vector<size_t>, size_t> kept = {
                base.featureIndices, base.model.supportVectorCount()};
            EXPECT_NE(std::find(svs.begin(), svs.end(), kept), svs.end())
                << name;
        }
    }
}

} // namespace
