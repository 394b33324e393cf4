/**
 * @file
 * Random subspace ensemble classifier (paper Sections 2.1 and 4.4).
 *
 * Base SVMs are trained on random 12-feature subsets of the
 * 48-feature pool; the best candidates by validation accuracy are
 * kept (the paper keeps the top 10% of 100 candidates) and fused by
 * a weighted voting scheme whose weights are trained with least
 * squares. The set of features the surviving base classifiers
 * actually consume determines which functional cells exist in the
 * XPro topology.
 *
 * Candidate training is embarrassingly parallel and fans out over a
 * WorkerPool. Every random draw (the train/validation split and all
 * candidate subspaces) happens serially before the fan-out, each
 * candidate trains from its own pre-drawn subspace with no shared
 * mutable state, and results are collected by candidate index — so
 * the trained ensemble, vote weights and accuracies are bit-for-bit
 * identical at any worker count.
 */

#ifndef XPRO_ML_RANDOM_SUBSPACE_HH
#define XPRO_ML_RANDOM_SUBSPACE_HH

#include <cstddef>
#include <vector>

#include "common/random.hh"
#include "ml/svm.hh"

namespace xpro
{

/** Random subspace training hyper-parameters. */
struct RandomSubspaceConfig
{
    /** Features drawn per base classifier (paper: 12). */
    size_t subspaceDimension = 12;
    /** Candidate base classifiers trained (paper: 100). */
    size_t candidates = 100;
    /** Fraction of candidates kept by accuracy (paper: top 10%). */
    double keepFraction = 0.1;
    /** SVM configuration shared by all base classifiers. */
    SvmConfig svm;
    /** Ridge regularizer for the least-squares voting weights. */
    double fusionRidge = 1e-6;
    /** RNG seed for subspace sampling. */
    uint64_t seed = 1;
    /**
     * Worker threads for candidate training (0 = one per hardware
     * thread, 1 = inline). The result is identical at any setting.
     */
    size_t workers = 1;
};

/** One trained member of the ensemble. */
struct BaseClassifier
{
    /** Indices into the full feature pool this member consumes. */
    std::vector<size_t> featureIndices;
    Svm model;
    /** Validation accuracy used for candidate selection. */
    double validationAccuracy = 0.0;
};

/** Trained random subspace ensemble with weighted-voting fusion. */
class RandomSubspace
{
  public:
    /**
     * Train on full-pool feature rows with +-1 labels.
     * @param data Rows over the complete feature pool.
     * @param config Ensemble hyper-parameters.
     */
    static RandomSubspace train(const LabeledData &data,
                                const RandomSubspaceConfig &config);

    /** Fused score; positive means class +1. */
    double score(RowView full_row) const;

    /** Predicted label in {-1, +1}. */
    int predict(RowView full_row) const;

    /** Fused scores for every full-pool row, batch-evaluated. */
    std::vector<double> scoreBatch(const FlatMatrix &full_rows) const;

    /** Predicted labels for every full-pool row. */
    std::vector<int> predictBatch(const FlatMatrix &full_rows) const;

    /** Accuracy over a full-pool dataset. */
    double accuracy(const LabeledData &data) const;

    const std::vector<BaseClassifier> &bases() const { return _bases; }
    const std::vector<double> &fusionWeights() const { return _weights; }
    /** Bias term of the least-squares voting combiner. */
    double fusionBias() const { return _weightBias; }

    /**
     * accuracy() on the rows the ensemble was trained on, found at
     * training time from the members' votes already cast there.
     */
    double trainingAccuracy() const { return _trainingAccuracy; }

    /** Union of feature-pool indices used by surviving bases. */
    std::vector<size_t> usedFeatureIndices() const;

    /** Project a full-pool row onto a base's subspace. */
    static std::vector<double>
    project(RowView full_row, const std::vector<size_t> &indices);

    /** Column-gather a whole dataset onto a subspace. */
    static FlatMatrix
    projectRows(const FlatMatrix &full_rows,
                const std::vector<size_t> &indices);

  private:
    std::vector<BaseClassifier> _bases;
    std::vector<double> _weights;
    double _weightBias = 0.0;
    double _trainingAccuracy = 0.0;
};

} // namespace xpro

#endif // XPRO_ML_RANDOM_SUBSPACE_HH
