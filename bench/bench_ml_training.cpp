/**
 * @file
 * End-to-end training speed of the fast ML path. Replicates the
 * pre-optimization serial pipeline (vector-of-vectors rows, pairwise
 * kernel matrix, SMO recomputing decision sums from scratch,
 * per-sample projection and inference) and times it against the
 * current path (flat matrices, on-demand Gram rows, error-cached
 * SMO, packed kernel tiles) on the largest Table-1 case. Both paths
 * train the full 100-candidate ensemble on identical data with
 * identical subspace draws, then classify the held-out test split.
 *
 * The shape check gates the optimization: the fast path must be at
 * least 3x faster end to end, and both paths must produce a working
 * classifier on the held-out data.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "common/random.hh"
#include "ml/crossval.hh"
#include "ml/random_subspace.hh"

using namespace xpro;
using namespace xpro::bench;

namespace naive
{

/** Pre-optimization dataset layout: one heap vector per row. */
struct Data
{
    std::vector<std::vector<double>> rows;
    std::vector<int> labels;

    size_t size() const { return rows.size(); }
};

double
kernelAt(const Kernel &kernel, const std::vector<double> &x,
         const std::vector<double> &z)
{
    if (kernel.kind == KernelKind::Linear) {
        double acc = 0.0;
        for (size_t i = 0; i < x.size(); ++i)
            acc += x[i] * z[i];
        return acc;
    }
    double acc = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
        const double d = x[i] - z[i];
        acc += d * d;
    }
    return std::exp(-kernel.gamma * acc);
}

/** Pairwise dense kernel matrix, as before the batched Gram path. */
class KernelMatrix
{
  public:
    KernelMatrix(const Data &data, const Kernel &kernel)
        : _n(data.size()), _values(_n * _n)
    {
        for (size_t i = 0; i < _n; ++i) {
            for (size_t j = i; j < _n; ++j) {
                const double k =
                    kernelAt(kernel, data.rows[i], data.rows[j]);
                _values[i * _n + j] = k;
                _values[j * _n + i] = k;
            }
        }
    }

    double at(size_t i, size_t j) const { return _values[i * _n + j]; }

  private:
    size_t _n;
    std::vector<double> _values;
};

/** Pre-optimization trained SVM: per-sample kernel inference. */
struct Svm
{
    Kernel kernel;
    double bias = 0.0;
    std::vector<std::vector<double>> supportVectors;
    std::vector<double> weights;

    double
    decision(const std::vector<double> &x) const
    {
        double acc = bias;
        for (size_t k = 0; k < supportVectors.size(); ++k)
            acc += weights[k] * kernelAt(kernel, supportVectors[k], x);
        return acc;
    }

    int predict(const std::vector<double> &x) const
    {
        return decision(x) >= 0.0 ? 1 : -1;
    }
};

/** The seed repo's stopping rule: quiet sweeps, then a sweep cap. */
constexpr size_t maxPassesWithoutChange = 3;
constexpr size_t maxIterations = 200;

/**
 * The seed repo's SMO loop: a random second multiplier, no cached
 * errors, and every KKT check and every second-multiplier pick
 * recomputes the decision sum over all active multipliers.
 */
Svm
trainSvm(const Data &data, const SvmConfig &config)
{
    const size_t n = data.size();
    const KernelMatrix gram(data, config.kernel);

    std::vector<double> alpha(n, 0.0);
    double bias = 0.0;
    Rng rng(0xC0FFEE);

    const auto decision_on_train = [&](size_t i) {
        double acc = bias;
        for (size_t k = 0; k < n; ++k) {
            if (alpha[k] > 0.0)
                acc += alpha[k] * data.labels[k] * gram.at(k, i);
        }
        return acc;
    };

    size_t quiet_passes = 0;
    size_t iterations = 0;
    while (quiet_passes < maxPassesWithoutChange &&
           iterations < maxIterations) {
        ++iterations;
        size_t changed = 0;
        for (size_t i = 0; i < n; ++i) {
            const double error_i =
                decision_on_train(i) - data.labels[i];
            const bool violates =
                (data.labels[i] * error_i < -config.tolerance &&
                 alpha[i] < config.c) ||
                (data.labels[i] * error_i > config.tolerance &&
                 alpha[i] > 0.0);
            if (!violates)
                continue;

            size_t j = static_cast<size_t>(rng.below(n - 1));
            if (j >= i)
                ++j;
            const double error_j =
                decision_on_train(j) - data.labels[j];

            const double alpha_i_old = alpha[i];
            const double alpha_j_old = alpha[j];

            double low;
            double high;
            if (data.labels[i] != data.labels[j]) {
                low = std::max(0.0, alpha[j] - alpha[i]);
                high = std::min(config.c,
                                config.c + alpha[j] - alpha[i]);
            } else {
                low = std::max(0.0, alpha[i] + alpha[j] - config.c);
                high = std::min(config.c, alpha[i] + alpha[j]);
            }
            if (high - low < 1e-12)
                continue;

            const double eta = 2.0 * gram.at(i, j) - gram.at(i, i) -
                               gram.at(j, j);
            if (eta >= -1e-12)
                continue;

            double alpha_j_new =
                alpha_j_old -
                data.labels[j] * (error_i - error_j) / eta;
            alpha_j_new = std::clamp(alpha_j_new, low, high);
            if (std::fabs(alpha_j_new - alpha_j_old) < 1e-7)
                continue;

            const double alpha_i_new =
                alpha_i_old + data.labels[i] * data.labels[j] *
                                  (alpha_j_old - alpha_j_new);
            alpha[i] = alpha_i_new;
            alpha[j] = alpha_j_new;

            const double b1 =
                bias - error_i -
                data.labels[i] * (alpha_i_new - alpha_i_old) *
                    gram.at(i, i) -
                data.labels[j] * (alpha_j_new - alpha_j_old) *
                    gram.at(i, j);
            const double b2 =
                bias - error_j -
                data.labels[i] * (alpha_i_new - alpha_i_old) *
                    gram.at(i, j) -
                data.labels[j] * (alpha_j_new - alpha_j_old) *
                    gram.at(j, j);
            if (alpha_i_new > 0.0 && alpha_i_new < config.c) {
                bias = b1;
            } else if (alpha_j_new > 0.0 && alpha_j_new < config.c) {
                bias = b2;
            } else {
                bias = 0.5 * (b1 + b2);
            }
            ++changed;
        }
        quiet_passes = changed == 0 ? quiet_passes + 1 : 0;
    }

    Svm model;
    model.kernel = config.kernel;
    model.bias = bias;
    for (size_t i = 0; i < n; ++i) {
        if (alpha[i] > 1e-9) {
            model.supportVectors.push_back(data.rows[i]);
            model.weights.push_back(alpha[i] * data.labels[i]);
        }
    }
    return model;
}

std::vector<double>
project(const std::vector<double> &row,
        const std::vector<size_t> &indices)
{
    std::vector<double> out;
    out.reserve(indices.size());
    for (size_t idx : indices)
        out.push_back(row[idx]);
    return out;
}

struct Base
{
    std::vector<size_t> featureIndices;
    Svm model;
    double validationAccuracy = 0.0;
};

struct Ensemble
{
    std::vector<Base> bases;
    std::vector<double> weights;
    double weightBias = 0.0;

    int
    predict(const std::vector<double> &full_row) const
    {
        double acc = weightBias;
        for (size_t m = 0; m < bases.size(); ++m) {
            const int vote = bases[m].model.predict(
                project(full_row, bases[m].featureIndices));
            acc += weights[m] * static_cast<double>(vote);
        }
        return acc >= 0.0 ? 1 : -1;
    }
};

/** The seed repo's serial ensemble training loop. */
Ensemble
trainEnsemble(const Data &data, const RandomSubspaceConfig &config)
{
    const size_t pool = data.rows.front().size();
    Rng rng(config.seed);
    const Split split = stratifiedSplit(data.labels, 0.8, rng);

    const auto gather = [&](const std::vector<size_t> &indices) {
        Data out;
        out.rows.reserve(indices.size());
        for (size_t idx : indices) {
            out.rows.push_back(data.rows[idx]);
            out.labels.push_back(data.labels[idx]);
        }
        return out;
    };
    const Data fit_set = gather(split.trainIndices);
    const Data val_set = gather(split.testIndices);

    std::vector<Base> candidates;
    candidates.reserve(config.candidates);
    for (size_t c = 0; c < config.candidates; ++c) {
        Base base;
        base.featureIndices =
            rng.sampleWithoutReplacement(pool,
                                         config.subspaceDimension);
        std::sort(base.featureIndices.begin(),
                  base.featureIndices.end());

        Data projected;
        projected.labels = fit_set.labels;
        projected.rows.reserve(fit_set.size());
        for (const auto &row : fit_set.rows)
            projected.rows.push_back(
                project(row, base.featureIndices));
        base.model = trainSvm(projected, config.svm);

        size_t correct = 0;
        for (size_t i = 0; i < val_set.size(); ++i) {
            const int vote = base.model.predict(
                project(val_set.rows[i], base.featureIndices));
            correct += vote == val_set.labels[i];
        }
        base.validationAccuracy =
            val_set.size() > 0
                ? static_cast<double>(correct) /
                      static_cast<double>(val_set.size())
                : 0.5;
        candidates.push_back(std::move(base));
    }

    const size_t keep = std::max<size_t>(
        1, static_cast<size_t>(std::lround(
               config.keepFraction *
               static_cast<double>(config.candidates))));
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Base &a, const Base &b) {
                         return a.validationAccuracy >
                                b.validationAccuracy;
                     });
    candidates.resize(std::min(keep, candidates.size()));

    Ensemble ensemble;
    ensemble.bases = std::move(candidates);

    const size_t members = ensemble.bases.size();
    Matrix design(data.size(), members + 1);
    Matrix target(data.size(), 1);
    for (size_t i = 0; i < data.size(); ++i) {
        for (size_t m = 0; m < members; ++m) {
            const Base &base = ensemble.bases[m];
            const int vote = base.model.predict(
                project(data.rows[i], base.featureIndices));
            design(i, m) = static_cast<double>(vote);
        }
        design(i, members) = 1.0;
        target(i, 0) = static_cast<double>(data.labels[i]);
    }
    const Matrix weights =
        Matrix::leastSquares(design, target, config.fusionRidge);
    ensemble.weights.resize(members);
    for (size_t m = 0; m < members; ++m)
        ensemble.weights[m] = weights(m, 0);
    ensemble.weightBias = weights(members, 0);
    return ensemble;
}

} // namespace naive

int
main()
{
    std::printf("ML training speed: serial seed path vs fast path\n");
    std::printf("================================================\n\n");

    // Largest Table-1 case: M1 (EMGHandLat, 1200 segments).
    const SignalDataset dataset = makeTestCase(TestCase::M1);
    const TrainingOptions options = paperTraining();
    const EngineConfig engine = paperConfig();

    // Shared preparation (feature extraction, split, scaling) so the
    // timed region isolates classifier training + inference.
    FeatureExtractor extractor(engine.wavelet);
    FlatMatrix raw_rows;
    std::vector<int> labels;
    raw_rows.reserve(dataset.size());
    for (const Segment &segment : dataset.segments) {
        raw_rows.push_back(extractor.extractAll(segment.samples));
        labels.push_back(segment.label);
    }
    Rng rng(options.seed);
    const Split split =
        stratifiedSplit(labels, options.trainFraction, rng);
    std::vector<size_t> train_idx = split.trainIndices;
    if (options.maxTrainingSegments > 0 &&
        train_idx.size() > options.maxTrainingSegments)
        train_idx.resize(options.maxTrainingSegments);

    LabeledData train;
    train.rows = FlatMatrix(0, raw_rows.cols());
    for (size_t idx : train_idx) {
        train.rows.push_back(raw_rows.row(idx));
        train.labels.push_back(labels[idx]);
    }
    LabeledData test;
    test.rows = FlatMatrix(0, raw_rows.cols());
    for (size_t idx : split.testIndices) {
        test.rows.push_back(raw_rows.row(idx));
        test.labels.push_back(labels[idx]);
    }
    FeatureScaler scaler;
    scaler.fit(train.rows);
    scaler.transformRowsInPlace(train.rows);
    scaler.transformRowsInPlace(test.rows);

    naive::Data naive_train;
    naive::Data naive_test;
    for (size_t i = 0; i < train.size(); ++i) {
        naive_train.rows.push_back(train.rows.row(i).toVector());
        naive_train.labels.push_back(train.labels[i]);
    }
    for (size_t i = 0; i < test.size(); ++i) {
        naive_test.rows.push_back(test.rows.row(i).toVector());
        naive_test.labels.push_back(test.labels[i]);
    }

    RandomSubspaceConfig subspace = engine.subspace;
    subspace.seed = options.seed ^ 0xABCDEF;

    std::printf("case %s: %zu train / %zu test segments, "
                "%zu-feature pool, %zu candidates\n\n",
                dataset.symbol.c_str(), train.size(), test.size(),
                train.dimension(), subspace.candidates);

    // Cold serial baseline: the seed repo's exact code path.
    SteadyTimer naive_timer;
    const naive::Ensemble naive_model =
        naive::trainEnsemble(naive_train, subspace);
    size_t naive_correct = 0;
    for (size_t i = 0; i < naive_test.size(); ++i)
        naive_correct += naive_model.predict(naive_test.rows[i]) ==
                         naive_test.labels[i];
    const double naive_ms = naive_timer.ms();
    const double naive_accuracy =
        static_cast<double>(naive_correct) /
        static_cast<double>(naive_test.size());

    // Fast path: on-demand Gram rows + error-cached SMO + kernel tiles,
    // all workers the machine has (identical results at any count).
    RandomSubspaceConfig fast = subspace;
    fast.workers = 0;
    SteadyTimer fast_timer;
    const RandomSubspace model = RandomSubspace::train(train, fast);
    const double fast_accuracy = model.accuracy(test);
    const double fast_ms = fast_timer.ms();

    const double speedup = naive_ms / fast_ms;
    std::printf("serial seed path : %8.1f ms  (%.1f%% held-out)\n",
                naive_ms, 100.0 * naive_accuracy);
    std::printf("fast path        : %8.1f ms  (%.1f%% held-out)\n",
                fast_ms, 100.0 * fast_accuracy);
    std::printf("speedup          : %8.2fx\n\n", speedup);

    ShapeChecker checker;
    checker.metric("serial_ms", naive_ms);
    checker.metric("fast_ms", fast_ms);
    checker.metric("speedup", speedup);
    checker.metric("serial_accuracy", naive_accuracy);
    checker.metric("fast_accuracy", fast_accuracy);
    // Work unit: one training segment through the fast path.
    checker.throughput(train.size(), fast_ms / 1e3);
    checker.check(speedup >= 3.0,
                  "fast path is at least 3x faster end to end");
    checker.check(fast_accuracy >= 0.7,
                  "fast path classifier works on held-out data");
    checker.check(std::fabs(fast_accuracy - naive_accuracy) <= 0.1,
                  "fast and serial paths reach comparable accuracy");
    return checker.finish("bench_ml_training");
}
