#include "core/pipeline.hh"

#include <algorithm>

#include "common/arena.hh"
#include "common/logging.hh"
#include "common/simd.hh"

namespace xpro
{

int
TrainedPipeline::classify(const std::vector<double> &segment) const
{
    const std::vector<double> raw = extractor.extractAll(segment);
    return ensemble.predict(scaler.transform(raw));
}

Split
trainingSplit(const std::vector<int> &labels,
              const TrainingOptions &options)
{
    // Split 75/25 (paper Section 4.4), stratified.
    Rng rng(options.seed);
    Split split = stratifiedSplit(labels, options.trainFraction, rng);
    if (options.maxTrainingSegments > 0 &&
        split.trainIndices.size() > options.maxTrainingSegments) {
        split.trainIndices.resize(options.maxTrainingSegments);
    }
    return split;
}

std::vector<bool>
splitMask(const Split &split, size_t count)
{
    std::vector<bool> keep(count);
    for (const std::vector<size_t> *side :
         {&split.trainIndices, &split.testIndices}) {
        for (size_t idx : *side)
            keep[idx] = true;
    }
    return keep;
}

TrainedPipeline
trainPipeline(const SignalDataset &dataset, const EngineConfig &config,
              const TrainingOptions &options)
{
    xproAssert(dataset.size() >= 8, "dataset too small to train on");

    TrainedPipeline pipeline;
    pipeline.extractor = FeatureExtractor(config.wavelet);

    std::vector<int> labels;
    labels.reserve(dataset.size());
    for (const Segment &segment : dataset.segments)
        labels.push_back(segment.label);
    const Split split = trainingSplit(labels, options);

    // The full 48-feature pool of each segment the split names, one
    // flat row-major matrix per side, extracted simdPackWidth
    // segments at a time (bit-identical to extractAll per segment).
    DwtScratch scratch;
    Arena arena;
    const auto gather = [&](const std::vector<size_t> &indices) {
        LabeledData out;
        out.rows = FlatMatrix(indices.size(), featurePoolSize);
        out.labels.reserve(indices.size());
        const double *pack[simdPackWidth];
        for (size_t first = 0; first < indices.size();
             first += simdPackWidth) {
            const size_t count =
                std::min(simdPackWidth, indices.size() - first);
            for (size_t j = 0; j < count; ++j) {
                const size_t idx = indices[first + j];
                const Segment &segment = dataset.segments[idx];
                xproAssert(!segment.samples.empty(),
                           "segment %zu is read for training but was "
                           "not synthesized", idx);
                xproAssert(segment.samples.size() ==
                               dataset.segmentLength,
                           "segment %zu has %zu samples, not %zu", idx,
                           segment.samples.size(),
                           dataset.segmentLength);
                pack[j] = segment.samples.data();
                out.labels.push_back(labels[idx]);
            }
            arena.reset();
            pipeline.extractor.extractAllPackedInto(
                pack, count, dataset.segmentLength,
                out.rows.rowData(first), scratch, arena);
        }
        return out;
    };
    LabeledData train = gather(split.trainIndices);
    LabeledData test = gather(split.testIndices);

    // Min-max normalization fitted on the training rows only.
    pipeline.scaler.fit(train.rows);
    pipeline.scaler.transformRowsInPlace(train.rows);
    if (test.size() > 0)
        pipeline.scaler.transformRowsInPlace(test.rows);

    RandomSubspaceConfig subspace = config.subspace;
    subspace.seed = options.seed ^ 0xABCDEF;
    subspace.workers = options.mlWorkers;
    pipeline.ensemble = RandomSubspace::train(train, subspace);
    pipeline.trainAccuracy = pipeline.ensemble.trainingAccuracy();
    pipeline.testAccuracy =
        test.size() > 0 ? pipeline.ensemble.accuracy(test) : 0.0;
    pipeline.trainCount = train.size();
    pipeline.testCount = test.size();
    return pipeline;
}

XProDesign
designXPro(const SignalDataset &dataset, const EngineConfig &config,
           const TrainingOptions &options)
{
    XProDesign design;
    design.config = config;
    design.pipeline = trainPipeline(dataset, config, options);
    design.topology = buildEngineTopology(
        design.pipeline.ensemble, dataset.segmentLength, config,
        dataset.eventsPerSecond());
    const WirelessLink link(transceiver(config.wireless));
    design.partition =
        XProGenerator(design.topology, link).generate();
    return design;
}

} // namespace xpro
