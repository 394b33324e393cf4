#include "ml/svm.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/simd.hh"
#include "obs/stats_registry.hh"

namespace xpro
{

namespace
{

// Stable scope: training is a pure function of its data and config,
// whichever thread runs it.
struct SvmStatIds
{
    StatId trained, sweeps, pairSteps;
};

const SvmStatIds &
svmStatIds()
{
    static const SvmStatIds ids = [] {
        StatsRegistry &reg = StatsRegistry::instance();
        return SvmStatIds{reg.registerCounter("ml.svm_trained"),
                          reg.registerCounter("ml.smo_sweeps"),
                          reg.registerCounter("ml.smo_pair_steps")};
    }();
    return ids;
}

} // namespace

Svm
Svm::train(const LabeledData &data, const SvmConfig &config)
{
    const size_t n = data.size();
    xproAssert(n >= 2, "SVM training needs at least two samples");
    xproAssert(data.labels.size() == n, "label/row count mismatch");
    bool has_pos = false;
    bool has_neg = false;
    for (int label : data.labels) {
        xproAssert(label == 1 || label == -1,
                   "labels must be +-1, got %d", label);
        has_pos |= label == 1;
        has_neg |= label == -1;
    }
    if (!has_pos || !has_neg)
        fatal("SVM training data must contain both classes");

    // One batched pass builds the full training Gram (upper triangle
    // evaluated, lower mirrored); the SMO loop below never calls the
    // kernel again.
    const FlatMatrix gram = config.kernel.gramSymmetric(data.rows);

    // Simplified SMO (Platt 1998 as in the CS229 formulation):
    // repeatedly pick KKT-violating multipliers and optimize pairs
    // analytically. error[k] caches f(x_k) - y_k and is updated
    // incrementally after every successful pair step, so candidate
    // screening is O(1) per sample instead of a fresh O(n) decision
    // sum.
    std::vector<double> alpha(n, 0.0);
    std::vector<double> error(n);
    for (size_t k = 0; k < n; ++k)
        error[k] = -static_cast<double>(data.labels[k]);
    double bias = 0.0;
    Rng rng(0xC0FFEE);

    size_t quiet_passes = 0;
    size_t iterations = 0;
    size_t pair_steps = 0;
    while (quiet_passes < config.maxPassesWithoutChange &&
           iterations < config.maxIterations) {
        ++iterations;
        size_t changed = 0;
        for (size_t i = 0; i < n; ++i) {
            const double error_i = error[i];
            const bool violates =
                (data.labels[i] * error_i < -config.tolerance &&
                 alpha[i] < config.c) ||
                (data.labels[i] * error_i > config.tolerance &&
                 alpha[i] > 0.0);
            if (!violates)
                continue;

            // Pick a random second multiplier distinct from i.
            size_t j = static_cast<size_t>(rng.below(n - 1));
            if (j >= i)
                ++j;
            const double error_j = error[j];

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

            const double k_ii = gram.row(i)[i];
            const double k_jj = gram.row(j)[j];
            const double k_ij = gram.row(i)[j];
            const double eta = 2.0 * k_ij - k_ii - k_jj;
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
                data.labels[i] * (alpha_i_new - alpha_i_old) * k_ii -
                data.labels[j] * (alpha_j_new - alpha_j_old) * k_ij;
            const double b2 =
                bias - error_j -
                data.labels[i] * (alpha_i_new - alpha_i_old) * k_ij -
                data.labels[j] * (alpha_j_new - alpha_j_old) * k_jj;
            double bias_new;
            if (alpha_i_new > 0.0 && alpha_i_new < config.c) {
                bias_new = b1;
            } else if (alpha_j_new > 0.0 && alpha_j_new < config.c) {
                bias_new = b2;
            } else {
                bias_new = 0.5 * (b1 + b2);
            }

            // Propagate the pair step into the cached errors: the
            // decision function moved by the two weighted kernel
            // rows plus the bias shift.
            const double delta_i =
                (alpha_i_new - alpha_i_old) * data.labels[i];
            const double delta_j =
                (alpha_j_new - alpha_j_old) * data.labels[j];
            const double delta_b = bias_new - bias;
            simdPairUpdate(error.data(), gram.rowData(i),
                           gram.rowData(j), delta_i, delta_j, delta_b,
                           n);
            bias = bias_new;
            ++changed;
        }
        pair_steps += changed;
        quiet_passes = changed == 0 ? quiet_passes + 1 : 0;
    }

    const SvmStatIds &ids = svmStatIds();
    StatsRegistry &reg = StatsRegistry::instance();
    reg.add(ids.trained);
    reg.add(ids.sweeps, iterations);
    reg.add(ids.pairSteps, pair_steps);

    Svm model;
    model._kernel = config.kernel;
    model._bias = bias;
    model._dimension = data.dimension();
    for (size_t i = 0; i < n; ++i) {
        if (alpha[i] > 1e-9) {
            model._supportVectors.push_back(data.rows[i]);
            model._weights.push_back(alpha[i] * data.labels[i]);
        }
    }
    model._svNorms = model._supportVectors.rowSquaredNorms();
    // Degenerate but possible on separable data with loose
    // tolerances: keep the model usable as a constant classifier.
    if (model._supportVectors.empty())
        warn("SVM training produced no support vectors");
    return model;
}

double
Svm::decision(RowView x) const
{
    xproAssert(x.size() == _dimension,
               "input dimension %zu, model expects %zu", x.size(),
               _dimension);
    double acc = _bias;
    if (_kernel.kind == KernelKind::Rbf) {
        // Same norm-expansion schedule as the batched Gram path:
        // |x|^2 once, then one dot product per support vector.
        double x_norm = 0.0;
        for (size_t d = 0; d < _dimension; ++d)
            x_norm += x[d] * x[d];
        for (size_t k = 0; k < _supportVectors.size(); ++k) {
            const double *sv = _supportVectors.rowData(k);
            double dot = 0.0;
            for (size_t d = 0; d < _dimension; ++d)
                dot += x[d] * sv[d];
            acc += _weights[k] *
                   rbfFromParts(_kernel.gamma, x_norm, _svNorms[k],
                                dot);
        }
    } else {
        for (size_t k = 0; k < _supportVectors.size(); ++k)
            acc += _weights[k] * dotProduct(x, _supportVectors[k]);
    }
    return acc;
}

int
Svm::predict(RowView x) const
{
    return decision(x) >= 0.0 ? 1 : -1;
}

std::vector<double>
Svm::decisionBatch(const FlatMatrix &rows) const
{
    xproAssert(rows.empty() || rows.cols() == _dimension,
               "input dimension %zu, model expects %zu", rows.cols(),
               _dimension);
    std::vector<double> out(rows.size(), _bias);
    if (_supportVectors.empty())
        return out;

    // K(test, SV) in one batched pass, then a weighted row sum.
    const FlatMatrix k = _kernel.gram(rows, _supportVectors);
    const size_t m = _supportVectors.size();
    for (size_t i = 0; i < rows.size(); ++i) {
        const double *row = k.rowData(i);
        double acc = _bias;
        for (size_t j = 0; j < m; ++j)
            acc += _weights[j] * row[j];
        out[i] = acc;
    }
    return out;
}

std::vector<int>
Svm::predictBatch(const FlatMatrix &rows) const
{
    const std::vector<double> decisions = decisionBatch(rows);
    std::vector<int> out(decisions.size());
    for (size_t i = 0; i < decisions.size(); ++i)
        out[i] = decisions[i] >= 0.0 ? 1 : -1;
    return out;
}

double
Svm::accuracy(const LabeledData &data) const
{
    xproAssert(data.size() > 0, "accuracy on empty dataset");
    const std::vector<int> predicted = predictBatch(data.rows);
    size_t correct = 0;
    for (size_t i = 0; i < data.size(); ++i)
        correct += predicted[i] == data.labels[i];
    return static_cast<double>(correct) /
           static_cast<double>(data.size());
}

} // namespace xpro
