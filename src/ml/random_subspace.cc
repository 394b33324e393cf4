#include "ml/random_subspace.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <set>

#include "common/logging.hh"
#include "common/matrix.hh"
#include "common/worker_pool.hh"
#include "ml/crossval.hh"

namespace xpro
{

namespace
{

/** A trained candidate and its +-1 vote on every training row. */
struct Candidate
{
    BaseClassifier base;
    std::vector<signed char> votes;
};

signed char
vote(double decision)
{
    return decision >= 0.0 ? 1 : -1;
}

/**
 * Gram row buffers for one ensemble training, one per candidate in
 * flight: a finished candidate hands its buffer to the next, and
 * every buffer is freed with the pool.
 */
class GramPool
{
  public:
    std::unique_ptr<GramRows>
    take()
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        if (_spare.empty())
            return std::make_unique<GramRows>();
        std::unique_ptr<GramRows> rows = std::move(_spare.back());
        _spare.pop_back();
        return rows;
    }

    void
    give(std::unique_ptr<GramRows> rows)
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        _spare.push_back(std::move(rows));
    }

  private:
    std::mutex _mutex;
    std::vector<std::unique_ptr<GramRows>> _spare;
};

} // namespace

std::vector<double>
RandomSubspace::project(RowView full_row,
                        const std::vector<size_t> &indices)
{
    std::vector<double> out;
    out.reserve(indices.size());
    for (size_t idx : indices) {
        xproAssert(idx < full_row.size(),
                   "feature index %zu out of range", idx);
        out.push_back(full_row[idx]);
    }
    return out;
}

FlatMatrix
RandomSubspace::projectRows(const FlatMatrix &full_rows,
                            const std::vector<size_t> &indices)
{
    for (size_t idx : indices) {
        xproAssert(idx < full_rows.cols(),
                   "feature index %zu out of range", idx);
    }
    FlatMatrix out(full_rows.size(), indices.size());
    for (size_t i = 0; i < full_rows.size(); ++i) {
        const double *src = full_rows.rowData(i);
        double *dst = out.rowData(i);
        for (size_t c = 0; c < indices.size(); ++c)
            dst[c] = src[indices[c]];
    }
    return out;
}

RandomSubspace
RandomSubspace::train(const LabeledData &data,
                      const RandomSubspaceConfig &config)
{
    xproAssert(config.candidates > 0, "need at least one candidate");
    xproAssert(config.keepFraction > 0.0 && config.keepFraction <= 1.0,
               "keep fraction %f out of (0,1]", config.keepFraction);
    const size_t pool = data.dimension();
    xproAssert(config.subspaceDimension <= pool,
               "subspace dimension %zu exceeds pool %zu",
               config.subspaceDimension, pool);

    Rng rng(config.seed);

    // Hold out a validation part of the training data for candidate
    // selection so accuracies are not measured on the fit set.
    const Split split = stratifiedSplit(data.labels, 0.8, rng);
    const LabeledData fit_set = subset(data, split.trainIndices);
    const LabeledData val_set = subset(data, split.testIndices);

    // Draw every candidate subspace up front from the single RNG
    // stream; the parallel section below consumes no randomness, so
    // worker scheduling cannot perturb the draws.
    std::vector<std::vector<size_t>> subspaces(config.candidates);
    for (size_t c = 0; c < config.candidates; ++c) {
        subspaces[c] =
            rng.sampleWithoutReplacement(pool, config.subspaceDimension);
        std::sort(subspaces[c].begin(), subspaces[c].end());
    }

    // Fan the candidate trainings out over the pool; slot c of the
    // result is always candidate c, so the outcome is identical for
    // any worker count. Each candidate also keeps its +-1 vote on
    // every training row: the fit rows' from the decisions training
    // returns, the validation rows' from its validation pass.
    GramPool grams;
    WorkerPool workers(resolveWorkerCount(config.workers));
    std::vector<Candidate> candidates = workers.map<Candidate>(
        config.candidates, [&](size_t c) {
            Candidate out;
            BaseClassifier &base = out.base;
            base.featureIndices = subspaces[c];
            out.votes.resize(data.size());

            LabeledData projected;
            projected.labels = fit_set.labels;
            projected.rows =
                projectRows(fit_set.rows, base.featureIndices);
            std::vector<double> decisions;
            std::unique_ptr<GramRows> gram = grams.take();
            base.model =
                Svm::train(projected, config.svm, &decisions, gram.get());
            grams.give(std::move(gram));
            for (size_t r = 0; r < decisions.size(); ++r)
                out.votes[split.trainIndices[r]] = vote(decisions[r]);

            if (val_set.size() > 0) {
                decisions = base.model.decisionBatch(
                    projectRows(val_set.rows, base.featureIndices));
                size_t correct = 0;
                for (size_t r = 0; r < decisions.size(); ++r) {
                    const signed char v = vote(decisions[r]);
                    out.votes[split.testIndices[r]] = v;
                    correct += v == val_set.labels[r];
                }
                base.validationAccuracy =
                    static_cast<double>(correct) /
                    static_cast<double>(val_set.size());
            } else {
                base.validationAccuracy = 0.5;
            }
            return out;
        });

    // Keep the top fraction by validation accuracy.
    const size_t keep = std::max<size_t>(
        1, static_cast<size_t>(std::lround(
               config.keepFraction *
               static_cast<double>(config.candidates))));
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate &a, const Candidate &b) {
                         return a.base.validationAccuracy >
                                b.base.validationAccuracy;
                     });
    candidates.resize(std::min(keep, candidates.size()));

    // Least-squares voting weights: regress the +-1 label on the
    // base decision signs over the whole training set (weighted
    // voting trained by least squares, paper Section 4.4), one
    // column of kept votes per base.
    const size_t members = candidates.size();
    Matrix design(data.size(), members + 1);
    Matrix target(data.size(), 1);
    for (size_t m = 0; m < members; ++m) {
        for (size_t i = 0; i < data.size(); ++i)
            design(i, m) = candidates[m].votes[i];
    }
    for (size_t i = 0; i < data.size(); ++i) {
        design(i, members) = 1.0; // bias column
        target(i, 0) = static_cast<double>(data.labels[i]);
    }
    const Matrix weights =
        Matrix::leastSquares(design, target, config.fusionRidge);

    RandomSubspace ensemble;
    ensemble._weights.resize(members);
    for (size_t m = 0; m < members; ++m)
        ensemble._weights[m] = weights(m, 0);
    ensemble._weightBias = weights(members, 0);

    // Training accuracy from the same votes, summed in scoreBatch()'s
    // order, so it equals accuracy(data).
    size_t correct = 0;
    for (size_t i = 0; i < data.size(); ++i) {
        double score = ensemble._weightBias;
        for (size_t m = 0; m < members; ++m)
            score += ensemble._weights[m] *
                     static_cast<double>(candidates[m].votes[i]);
        correct += (score >= 0.0 ? 1 : -1) == data.labels[i];
    }
    ensemble._trainingAccuracy = static_cast<double>(correct) /
                                 static_cast<double>(data.size());

    ensemble._bases.reserve(members);
    for (Candidate &candidate : candidates)
        ensemble._bases.push_back(std::move(candidate.base));
    return ensemble;
}

double
RandomSubspace::score(RowView full_row) const
{
    xproAssert(!_bases.empty(), "ensemble not trained");
    double acc = _weightBias;
    for (size_t m = 0; m < _bases.size(); ++m) {
        const int vote = _bases[m].model.predict(
            project(full_row, _bases[m].featureIndices));
        acc += _weights[m] * static_cast<double>(vote);
    }
    return acc;
}

int
RandomSubspace::predict(RowView full_row) const
{
    return score(full_row) >= 0.0 ? 1 : -1;
}

std::vector<double>
RandomSubspace::scoreBatch(const FlatMatrix &full_rows) const
{
    xproAssert(!_bases.empty(), "ensemble not trained");
    std::vector<double> scores(full_rows.size(), 0.0);
    for (size_t i = 0; i < scores.size(); ++i)
        scores[i] = _weightBias;
    // One batched projection per base instead of one heap-allocated
    // projection per (sample, base) pair.
    for (size_t m = 0; m < _bases.size(); ++m) {
        const std::vector<int> votes = _bases[m].model.predictBatch(
            projectRows(full_rows, _bases[m].featureIndices));
        for (size_t i = 0; i < scores.size(); ++i)
            scores[i] +=
                _weights[m] * static_cast<double>(votes[i]);
    }
    return scores;
}

std::vector<int>
RandomSubspace::predictBatch(const FlatMatrix &full_rows) const
{
    const std::vector<double> scores = scoreBatch(full_rows);
    std::vector<int> out(scores.size());
    for (size_t i = 0; i < scores.size(); ++i)
        out[i] = scores[i] >= 0.0 ? 1 : -1;
    return out;
}

double
RandomSubspace::accuracy(const LabeledData &data) const
{
    xproAssert(data.size() > 0, "accuracy on empty dataset");
    const std::vector<int> predicted = predictBatch(data.rows);
    size_t correct = 0;
    for (size_t i = 0; i < data.size(); ++i)
        correct += predicted[i] == data.labels[i];
    return static_cast<double>(correct) /
           static_cast<double>(data.size());
}

std::vector<size_t>
RandomSubspace::usedFeatureIndices() const
{
    std::set<size_t> used;
    for (const BaseClassifier &base : _bases)
        used.insert(base.featureIndices.begin(),
                    base.featureIndices.end());
    return {used.begin(), used.end()};
}

} // namespace xpro
