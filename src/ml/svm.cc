#include "ml/svm.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.hh"
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
    StatId trained, pairSteps, stepCapHits;
};

const SvmStatIds &
svmStatIds()
{
    static const SvmStatIds ids = [] {
        StatsRegistry &reg = StatsRegistry::instance();
        return SvmStatIds{reg.registerCounter("ml.svm_trained"),
                          reg.registerCounter("ml.smo_pair_steps"),
                          reg.registerCounter("ml.smo_step_cap_hits")};
    }();
    return ids;
}

// A safety net, not a stopping rule: pair steps allowed per training
// sample. The largest fleet training converges in under 6 per
// sample.
constexpr size_t maxStepsPerSample = 100;

// LIBSVM's TAU: the curvature floor for a pair whose kernel rows
// coincide.
constexpr double minCurvature = 1e-12;

constexpr double infinity = std::numeric_limits<double>::infinity();

} // namespace

SmoSolution
solveSmo(GramRows &gram, const std::vector<int> &labels, double c,
         double tolerance)
{
    const size_t n = labels.size();
    xproAssert(gram.size() == n, "Gram has %zu rows for %zu samples",
               gram.size(), n);
    xproAssert(c > 0.0, "soft-margin penalty must be positive");

    // error[t] = sum_s alpha_s y_s K_ts - y_t, the decision value
    // without bias minus the label (LIBSVM's y_t * G_t). I_up holds
    // the samples whose alpha_t y_t can still grow, I_low those whose
    // alpha_t y_t can still shrink; membership is a 0 / -inf offset
    // per sample for the selection scans.
    SmoSolution out;
    std::vector<double> &alpha = out.alpha;
    alpha.assign(n, 0.0);
    std::vector<double> error(n), diag(n), up(n), low(n);
    const auto refresh_sets = [&](size_t t) {
        const bool positive = labels[t] > 0;
        const bool above_zero = alpha[t] > 0.0;
        const bool below_c = alpha[t] < c;
        up[t] = (positive ? below_c : above_zero) ? 0.0 : -infinity;
        low[t] = (positive ? above_zero : below_c) ? 0.0 : -infinity;
    };
    for (size_t t = 0; t < n; ++t) {
        error[t] = -static_cast<double>(labels[t]);
        diag[t] = gram.diagonal(t);
        refresh_sets(t);
    }

    const size_t max_steps = maxStepsPerSample * n;
    double gmax, gmax2;
    size_t i = simdSmoSelectUp(error.data(), up.data(), n, &gmax);
    while (i < n) {
        const double *row_i = gram.row(i);
        const size_t j = simdSmoSelectLow(error.data(), low.data(),
                                          row_i, diag.data(), diag[i],
                                          gmax, minCurvature, n, &gmax2);
        if (j == n || gmax + gmax2 < tolerance)
            break;
        if (out.steps == max_steps) {
            out.capped = true;
            break;
        }

        // Move alpha_i y_i up and alpha_j y_j down by lambda, the
        // Newton step on the pair clipped to both boxes. A multiplier
        // whose box stops the step lands exactly on its bound.
        const double curvature = std::max(
            diag[i] + diag[j] - 2.0 * row_i[j], minCurvature);
        const double room_i = labels[i] > 0 ? c - alpha[i] : alpha[i];
        const double room_j = labels[j] > 0 ? alpha[j] : c - alpha[j];
        const double lambda =
            std::min({(gmax + error[j]) / curvature, room_i, room_j});
        alpha[i] = lambda == room_i ? (labels[i] > 0 ? c : 0.0)
                                    : alpha[i] + labels[i] * lambda;
        alpha[j] = lambda == room_j ? (labels[j] > 0 ? 0.0 : c)
                                    : alpha[j] - labels[j] * lambda;
        // The sets first: the fused update scans I_up for the next
        // step's i.
        refresh_sets(i);
        refresh_sets(j);
        i = simdPairUpdateSelectUp(error.data(), row_i, gram.row(j),
                                   lambda, -lambda, up.data(), n, &gmax);
        ++out.steps;
    }

    // LIBSVM's calculate_rho: the bias makes the free multipliers'
    // errors zero on average; with none free it is the midpoint of
    // the interval the bounded ones allow.
    double upper = infinity, lower = -infinity, free_sum = 0.0;
    size_t free_count = 0;
    for (size_t t = 0; t < n; ++t) {
        const bool positive = labels[t] > 0;
        if (alpha[t] >= c) {
            if (positive)
                lower = std::max(lower, error[t]);
            else
                upper = std::min(upper, error[t]);
        } else if (alpha[t] <= 0.0) {
            if (positive)
                upper = std::min(upper, error[t]);
            else
                lower = std::max(lower, error[t]);
        } else {
            ++free_count;
            free_sum += error[t];
        }
    }
    out.bias = free_count > 0
                   ? -free_sum / static_cast<double>(free_count)
                   : -0.5 * (upper + lower);
    return out;
}

Svm
Svm::train(const LabeledData &data, const SvmConfig &config,
           std::vector<double> *fit_decisions, GramRows *rows)
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

    // The solver builds only the Gram rows it reads.
    GramRows local;
    GramRows &gram = rows ? *rows : local;
    gram.bind(config.kernel, data.rows);
    const SmoSolution solution =
        solveSmo(gram, data.labels, config.c, config.tolerance);

    const SvmStatIds &ids = svmStatIds();
    StatsRegistry &reg = StatsRegistry::instance();
    reg.add(ids.trained);
    reg.add(ids.pairSteps, solution.steps);
    reg.add(ids.stepCapHits, solution.capped ? 1 : 0);

    Svm model;
    model._kernel = config.kernel;
    model._bias = solution.bias;
    std::vector<size_t> sv_rows;
    for (size_t i = 0; i < n; ++i) {
        const double alpha = solution.alpha[i];
        if (alpha > 1e-9) {
            sv_rows.push_back(i);
            model._weights.push_back(alpha * data.labels[i]);
        }
    }
    model._supportVectors.assign(data.rows, sv_rows);

    // decision()'s sum over the support vectors, with K(t, sv) read
    // from the support vector's row, which the same kernel tile
    // built.
    if (fit_decisions) {
        fit_decisions->assign(n, model._bias);
        for (size_t k = 0; k < sv_rows.size(); ++k) {
            xproAssert(gram.built(sv_rows[k]),
                       "support vector %zu has no Gram row", sv_rows[k]);
            const double *row = gram.row(sv_rows[k]);
            const double weight = model._weights[k];
            for (size_t t = 0; t < n; ++t)
                (*fit_decisions)[t] += weight * row[t];
        }
    }
    // Degenerate but possible on separable data with loose
    // tolerances: keep the model usable as a constant classifier.
    if (sv_rows.empty())
        warn("SVM training produced no support vectors");
    return model;
}

Svm::Svm(const Kernel &kernel, double bias,
         const FlatMatrix &supportVectors, std::vector<double> weights)
    : _kernel(kernel), _bias(bias), _weights(std::move(weights))
{
    xproAssert(_weights.size() == supportVectors.size(),
               "%zu weights for %zu support vectors", _weights.size(),
               supportVectors.size());
    _supportVectors.assign(supportVectors);
}

double
Svm::decision(RowView x) const
{
    const size_t count = _supportVectors.size();
    xproAssert(x.size() == dimension(),
               "input dimension %zu, model expects %zu", x.size(),
               dimension());
    // The bias first, then one weighted kernel term per support
    // vector in order.
    const double x_norm = dotProduct(x, x);
    double k[simdPackWidth];
    double acc = _bias;
    for (size_t first = 0; first < count; first += simdPackWidth) {
        _supportVectors.kernelTile(_kernel, x.data(), x_norm, first, k);
        const size_t lanes = std::min(simdPackWidth, count - first);
        for (size_t j = 0; j < lanes; ++j)
            acc += _weights[first + j] * k[j];
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
    std::vector<double> out(rows.size());
    for (size_t i = 0; i < rows.size(); ++i)
        out[i] = decision(rows.row(i));
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
