/**
 * @file
 * Equivalence and determinism tests for the fast ML path: batched
 * Gram computation vs. pairwise kernel evaluation, batch inference
 * vs. per-sample inference, and bit-for-bit reproducibility of
 * parallel ensemble training and cross-validation at any worker
 * count.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/random.hh"
#include "ml/crossval.hh"
#include "ml/kernel.hh"
#include "ml/random_subspace.hh"
#include "ml/svm.hh"

namespace
{

using namespace xpro;

/** Random dense matrix with reproducible entries. */
FlatMatrix
randomMatrix(Rng &rng, size_t rows, size_t cols)
{
    FlatMatrix out(rows, cols);
    for (size_t i = 0; i < rows; ++i) {
        double *row = out.rowData(i);
        for (size_t c = 0; c < cols; ++c)
            row[c] = rng.gaussian(0.0, 1.0);
    }
    return out;
}

/** Two-cluster labeled data over a wide feature pool. */
LabeledData
clusterData(Rng &rng, size_t n, size_t pool)
{
    LabeledData data;
    data.rows = FlatMatrix(0, pool);
    data.rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        const bool positive = i % 2 == 0;
        std::vector<double> row(pool);
        for (size_t c = 0; c < pool; ++c) {
            const double center =
                c % 3 == 0 ? (positive ? 0.8 : -0.8) : 0.0;
            row[c] = rng.gaussian(center, 0.6);
        }
        data.rows.push_back(row);
        data.labels.push_back(positive ? 1 : -1);
    }
    return data;
}

RandomSubspaceConfig
ensembleConfig(size_t workers)
{
    RandomSubspaceConfig config;
    config.subspaceDimension = 5;
    config.candidates = 24;
    config.keepFraction = 0.25;
    config.svm.kernel = {KernelKind::Rbf, 0.5};
    config.svm.c = 5.0;
    config.seed = 977;
    config.workers = workers;
    return config;
}

TEST(BatchKernelTest, GramMatchesPairwiseRbf)
{
    Rng rng(11);
    const FlatMatrix a = randomMatrix(rng, 17, 7);
    const Kernel kernel{KernelKind::Rbf, 0.37};

    GramRows gram;
    gram.bind(kernel, a);
    ASSERT_EQ(gram.size(), a.size());
    for (size_t i = 0; i < a.size(); ++i) {
        const double *row = gram.row(i);
        for (size_t j = 0; j < a.size(); ++j) {
            EXPECT_NEAR(row[j], kernel(a.row(i), a.row(j)), 1e-12)
                << "entry (" << i << ", " << j << ")";
        }
    }
}

TEST(BatchKernelTest, GramMatchesPairwiseLinear)
{
    Rng rng(12);
    const FlatMatrix a = randomMatrix(rng, 13, 5);
    const Kernel kernel{KernelKind::Linear, 0.0};

    GramRows gram;
    gram.bind(kernel, a);
    for (size_t i = 0; i < a.size(); ++i) {
        const double *row = gram.row(i);
        for (size_t j = 0; j < a.size(); ++j)
            EXPECT_NEAR(row[j], kernel(a.row(i), a.row(j)), 1e-12);
    }
}

TEST(BatchInferenceTest, SvmDecisionBatchMatchesPerSample)
{
    Rng rng(21);
    const LabeledData train = clusterData(rng, 60, 6);
    SvmConfig config;
    config.kernel = {KernelKind::Rbf, 0.5};
    config.c = 5.0;
    const Svm model = Svm::train(train, config);

    const FlatMatrix probe = randomMatrix(rng, 40, 6);
    const std::vector<double> batch = model.decisionBatch(probe);
    const std::vector<int> votes = model.predictBatch(probe);
    ASSERT_EQ(batch.size(), probe.size());
    for (size_t i = 0; i < probe.size(); ++i) {
        // Bit-for-bit: batch and per-sample paths share the same
        // norm-expansion evaluation order.
        EXPECT_EQ(batch[i], model.decision(probe.row(i)));
        EXPECT_EQ(votes[i], model.predict(probe.row(i)));
    }
}

TEST(BatchInferenceTest, EnsemblePredictBatchMatchesPerSample)
{
    Rng rng(22);
    const LabeledData train = clusterData(rng, 64, 12);
    const RandomSubspace ensemble =
        RandomSubspace::train(train, ensembleConfig(1));

    const FlatMatrix probe = randomMatrix(rng, 30, 12);
    const std::vector<double> scores = ensemble.scoreBatch(probe);
    const std::vector<int> votes = ensemble.predictBatch(probe);
    for (size_t i = 0; i < probe.size(); ++i) {
        EXPECT_EQ(scores[i], ensemble.score(probe.row(i)));
        EXPECT_EQ(votes[i], ensemble.predict(probe.row(i)));
    }
}

/** Exact structural equality of two trained ensembles. */
void
expectIdenticalEnsembles(const RandomSubspace &a,
                         const RandomSubspace &b)
{
    ASSERT_EQ(a.bases().size(), b.bases().size());
    for (size_t m = 0; m < a.bases().size(); ++m) {
        const BaseClassifier &lhs = a.bases()[m];
        const BaseClassifier &rhs = b.bases()[m];
        EXPECT_EQ(lhs.featureIndices, rhs.featureIndices);
        EXPECT_EQ(lhs.validationAccuracy, rhs.validationAccuracy);
        EXPECT_EQ(lhs.model.supportVectors(),
                  rhs.model.supportVectors());
        EXPECT_EQ(lhs.model.weights(), rhs.model.weights());
        EXPECT_EQ(lhs.model.bias(), rhs.model.bias());
    }
    EXPECT_EQ(a.fusionWeights(), b.fusionWeights());
    EXPECT_EQ(a.fusionBias(), b.fusionBias());
}

TEST(ParallelTrainingTest, WorkerCountDoesNotChangeEnsemble)
{
    Rng rng(31);
    const LabeledData train = clusterData(rng, 72, 14);
    const RandomSubspace serial =
        RandomSubspace::train(train, ensembleConfig(1));
    for (size_t workers : {size_t{2}, size_t{8}}) {
        const RandomSubspace parallel =
            RandomSubspace::train(train, ensembleConfig(workers));
        expectIdenticalEnsembles(serial, parallel);
    }
}

TEST(ParallelTrainingTest, CrossValidationIdenticalAcrossWorkers)
{
    Rng data_rng(32);
    const LabeledData data = clusterData(data_rng, 60, 6);
    SvmConfig config;
    config.kernel = {KernelKind::Rbf, 0.5};
    config.c = 5.0;

    Rng serial_rng(7);
    const double serial =
        crossValidatedAccuracy(data, config, 5, serial_rng, 1);
    for (size_t workers : {size_t{2}, size_t{8}}) {
        Rng rng(7);
        const double parallel =
            crossValidatedAccuracy(data, config, 5, rng, workers);
        EXPECT_EQ(serial, parallel) << workers << " workers";
    }
}

TEST(ParallelTrainingTest, WorkersZeroMeansHardwareConcurrency)
{
    Rng rng(33);
    const LabeledData train = clusterData(rng, 48, 10);
    const RandomSubspace serial =
        RandomSubspace::train(train, ensembleConfig(1));
    const RandomSubspace automatic =
        RandomSubspace::train(train, ensembleConfig(0));
    expectIdenticalEnsembles(serial, automatic);
}

} // namespace
