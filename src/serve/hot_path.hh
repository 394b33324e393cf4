/**
 * @file
 * Compiled allocation-free serving form of a trained pipeline.
 *
 * HotPathPipeline takes a TrainedPipeline apart once at construction
 * — support vectors transposed into packed SIMD tiles
 * (common/simd.hh), per-SV norms and weights flattened, fusion
 * weights captured — so that classify() runs segment → DWT →
 * features → scaling → per-base RBF decision → weighted vote with
 * zero heap allocations (all scratch comes from a caller-provided
 * Arena and DwtScratch, which stop growing after the first event).
 *
 * The float path is bit-identical to TrainedPipeline::classify():
 * feature extraction and scaling share the same code
 * (extractAllInto/transformInto), and every kernel dot product
 * accumulates serially left-to-right exactly like Svm::decision(),
 * with vectorization only across support vectors. The differential
 * tests (label `hotpath`) compare the two paths with exact equality.
 */

#ifndef XPRO_SERVE_HOT_PATH_HH
#define XPRO_SERVE_HOT_PATH_HH

#include <cstddef>
#include <vector>

#include "common/arena.hh"
#include "core/pipeline.hh"
#include "dsp/dwt.hh"
#include "dsp/feature_pool.hh"
#include "ml/kernel.hh"

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
    size_t baseCount() const { return _bases.size(); }

  private:
    /** One ensemble member with its support vectors pre-packed into
     * simdPackWidth-wide tiles. */
    struct PackedBase
    {
        std::vector<size_t> featureIndices;
        /** ceil(svCount / simdPackWidth) tiles, each dims *
         * simdPackWidth doubles. */
        std::vector<double> packedTiles;
        std::vector<double> weights;
        std::vector<double> svNorms;
        double bias = 0.0;
        double gamma = 0.0;
        KernelKind kind = KernelKind::Rbf;
        size_t svCount = 0;
        size_t dims = 0;
        double fusionWeight = 0.0;
    };

    FeatureExtractor _extractor;
    FeatureScaler _scaler;
    std::vector<PackedBase> _bases;
    double _fusionBias = 0.0;
};

} // namespace xpro

#endif // XPRO_SERVE_HOT_PATH_HH
