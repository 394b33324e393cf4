/**
 * @file
 * Compiled allocation-free serving form of a trained pipeline.
 *
 * HotPathPipeline copies a TrainedPipeline's extractor, scaler and
 * ensemble once at construction, so that classify() runs segment →
 * DWT → features → scaling → per-base RBF decision → weighted vote
 * with zero heap allocations (all scratch comes from a
 * caller-provided Arena and DwtScratch, which stop growing after the
 * first event).
 *
 * The float path is bit-identical to TrainedPipeline::classify():
 * feature extraction and scaling share the same code
 * (extractAllInto/transformInto), and each base's vote is its
 * Svm::decision() on the subspace, run on the support-vector tiles
 * the model already holds. The differential tests (label `hotpath`)
 * compare the two paths with exact equality.
 */

#ifndef XPRO_SERVE_HOT_PATH_HH
#define XPRO_SERVE_HOT_PATH_HH

#include <cstddef>
#include <vector>

#include "common/arena.hh"
#include "core/pipeline.hh"
#include "dsp/dwt.hh"
#include "dsp/feature_pool.hh"
#include "ml/random_subspace.hh"

namespace xpro
{

class HotPathPipeline
{
  public:
    /** Compile @p pipeline (which must be trained) for serving. The
     * trained pipeline is copied from; it need not stay alive. */
    explicit HotPathPipeline(const TrainedPipeline &pipeline);

    /**
     * Classify one raw segment. Resets @p arena on entry and draws
     * all scratch from it and from @p dwt; performs no heap
     * allocations once both have warmed up. Returns the same +-1
     * label as TrainedPipeline::classify(), bit-identically.
     */
    int classify(const double *segment, size_t n, Arena &arena,
                 DwtScratch &dwt) const;

    int
    classify(const std::vector<double> &segment, Arena &arena,
             DwtScratch &dwt) const
    {
        return classify(segment.data(), segment.size(), arena, dwt);
    }

    /**
     * Classify one raw feature row, as the extractor() writes it for
     * a segment: scales @p row in place, then runs the ensemble
     * decision, drawing per-base subspace scratch from @p arena
     * without resetting it. Returns the label classify() gives that
     * segment, bit-identically. Lets a caller extract features for
     * many users' events at once (FeatureExtractor::
     * extractAllPackedInto) and decide each with its own model.
     */
    int classifyFeatures(double *row, Arena &arena) const;

    /** The feature extractor classify() runs; its output depends
     * only on the wavelet and the segment, never on the model. */
    const FeatureExtractor &extractor() const { return _extractor; }

    /** Ensemble members compiled in. */
    size_t baseCount() const { return _ensemble.bases().size(); }

  private:
    FeatureExtractor _extractor;
    FeatureScaler _scaler;
    RandomSubspace _ensemble;
};

} // namespace xpro

#endif // XPRO_SERVE_HOT_PATH_HH
