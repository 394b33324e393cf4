#include "serve/hot_path.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/simd.hh"

namespace xpro
{

HotPathPipeline::HotPathPipeline(const TrainedPipeline &pipeline)
    : _extractor(pipeline.extractor), _scaler(pipeline.scaler),
      _fusionBias(pipeline.ensemble.fusionBias())
{
    const std::vector<BaseClassifier> &bases =
        pipeline.ensemble.bases();
    xproAssert(!bases.empty(), "ensemble not trained");
    xproAssert(_scaler.fitted(), "scaler not fitted");

    _bases.reserve(bases.size());
    for (size_t m = 0; m < bases.size(); ++m) {
        const BaseClassifier &base = bases[m];
        const Svm &model = base.model;
        const FlatMatrix &svs = model.supportVectors();

        PackedBase packed;
        packed.featureIndices = base.featureIndices;
        packed.weights = model.weights();
        packed.svNorms = model.supportVectorNorms();
        packed.bias = model.bias();
        packed.gamma = model.kernel().gamma;
        packed.kind = model.kernel().kind;
        packed.svCount = svs.size();
        packed.dims = model.dimension();
        packed.fusionWeight = pipeline.ensemble.fusionWeights()[m];

        const size_t tiles =
            (packed.svCount + simdPackWidth - 1) / simdPackWidth;
        packed.packedTiles.resize(tiles * packed.dims *
                                  simdPackWidth);
        const double *tileRows[simdPackWidth];
        for (size_t t = 0; t < tiles; ++t) {
            const size_t k0 = t * simdPackWidth;
            const size_t count =
                std::min(simdPackWidth, packed.svCount - k0);
            for (size_t j = 0; j < count; ++j)
                tileRows[j] = svs.rowData(k0 + j);
            simdPackRows(tileRows, count, packed.dims,
                         packed.packedTiles.data() +
                             t * packed.dims * simdPackWidth);
        }
        _bases.push_back(std::move(packed));
    }
}

int
HotPathPipeline::classify(const double *segment, size_t n,
                          Arena &arena, DwtScratch &dwt) const
{
    arena.reset();
    double *feats = arena.alloc<double>(featurePoolSize);
    _extractor.extractAllInto(segment, n, feats, dwt);
    return classifyFeatures(feats, arena);
}

int
HotPathPipeline::classifyFeatures(double *row, Arena &arena) const
{
    _scaler.transformInto(row, row);
    double score = _fusionBias;
    double lane[simdPackWidth];
    for (const PackedBase &base : _bases) {
        double *sub = arena.alloc<double>(base.dims);
        for (size_t c = 0; c < base.dims; ++c)
            sub[c] = row[base.featureIndices[c]];

        // Svm::decision()'s schedule: bias first, then one weighted
        // kernel term per support vector in SV order; each dot runs
        // serially over the subspace dimensions inside the packed
        // micro-kernel, so the value matches the scalar path bitwise.
        double acc = base.bias;
        if (base.kind == KernelKind::Rbf) {
            const double x_norm =
                scalar_ref::squaredNorm(sub, base.dims);
            for (size_t k0 = 0; k0 < base.svCount;
                 k0 += simdPackWidth) {
                simdDotPacked(sub,
                              base.packedTiles.data() +
                                  (k0 / simdPackWidth) * base.dims *
                                      simdPackWidth,
                              base.dims, lane);
                const size_t count =
                    std::min(simdPackWidth, base.svCount - k0);
                for (size_t j = 0; j < count; ++j)
                    acc += base.weights[k0 + j] *
                           rbfFromParts(base.gamma, x_norm,
                                        base.svNorms[k0 + j],
                                        lane[j]);
            }
        } else {
            for (size_t k0 = 0; k0 < base.svCount;
                 k0 += simdPackWidth) {
                simdDotPacked(sub,
                              base.packedTiles.data() +
                                  (k0 / simdPackWidth) * base.dims *
                                      simdPackWidth,
                              base.dims, lane);
                const size_t count =
                    std::min(simdPackWidth, base.svCount - k0);
                for (size_t j = 0; j < count; ++j)
                    acc += base.weights[k0 + j] * lane[j];
            }
        }
        const int vote = acc >= 0.0 ? 1 : -1;
        score += base.fusionWeight * static_cast<double>(vote);
    }
    return score >= 0.0 ? 1 : -1;
}

} // namespace xpro
