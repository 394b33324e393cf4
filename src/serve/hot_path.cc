#include "serve/hot_path.hh"

#include "common/logging.hh"

namespace xpro
{

HotPathPipeline::HotPathPipeline(const TrainedPipeline &pipeline)
    : _extractor(pipeline.extractor), _scaler(pipeline.scaler),
      _ensemble(pipeline.ensemble)
{
    xproAssert(!_ensemble.bases().empty(), "ensemble not trained");
    xproAssert(_scaler.fitted(), "scaler not fitted");
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
    // RandomSubspace::score()'s sum, with each subspace gathered into
    // arena scratch instead of a fresh vector.
    const std::vector<BaseClassifier> &bases = _ensemble.bases();
    const std::vector<double> &fusion = _ensemble.fusionWeights();
    double score = _ensemble.fusionBias();
    for (size_t m = 0; m < bases.size(); ++m) {
        const std::vector<size_t> &features = bases[m].featureIndices;
        double *sub = arena.alloc<double>(features.size());
        for (size_t c = 0; c < features.size(); ++c)
            sub[c] = row[features[c]];
        const int vote =
            bases[m].model.predict(RowView(sub, features.size()));
        score += fusion[m] * static_cast<double>(vote);
    }
    return score >= 0.0 ? 1 : -1;
}

} // namespace xpro
