/**
 * @file
 * End-to-end training pipeline and top-level XPro design entry
 * point: dataset -> feature extraction -> random-subspace training
 * -> engine topology -> Automatic XPro Generator (paper Sections 2,
 * 4.4).
 */

#ifndef XPRO_CORE_PIPELINE_HH
#define XPRO_CORE_PIPELINE_HH

#include <cstdint>

#include "core/evaluator.hh"
#include "core/topology.hh"
#include "data/biosignal.hh"
#include "dsp/feature_pool.hh"
#include "ml/crossval.hh"
#include "ml/random_subspace.hh"

namespace xpro
{

/** Training options beyond the classifier hyper-parameters. */
struct TrainingOptions
{
    /** Fraction of segments used for training (paper: 75%). */
    double trainFraction = 0.75;
    /**
     * Cap on the number of segments used for training; 0 means use
     * everything. The paper trains on the full sets; the cap exists
     * so tests and quick runs stay fast without changing the code
     * path.
     */
    size_t maxTrainingSegments = 0;
    /** Seed for splitting and subspace sampling. */
    uint64_t seed = 2017;
    /**
     * Worker threads for ensemble candidate training (0 = one per
     * hardware thread, 1 = inline). Results are bit-for-bit
     * identical at any setting.
     */
    size_t mlWorkers = 1;
};

/** A trained classification pipeline plus its quality numbers. */
struct TrainedPipeline
{
    FeatureExtractor extractor;
    FeatureScaler scaler;
    RandomSubspace ensemble;
    /** Accuracy on the held-out test split. */
    double testAccuracy = 0.0;
    /** Accuracy on the training split. */
    double trainAccuracy = 0.0;
    /** Segments in the train/test splits. */
    size_t trainCount = 0;
    size_t testCount = 0;

    /** Classify one raw segment. */
    int classify(const std::vector<double> &segment) const;
};

/**
 * The segments trainPipeline() reads for a dataset labeled @p labels:
 * the stratified train/test split drawn from @p options.seed, with
 * the training side cut to @p options.maxTrainingSegments. A pure
 * function of the labels and options, so a caller can synthesize
 * only these segments before training.
 */
Split trainingSplit(const std::vector<int> &labels,
                    const TrainingOptions &options);

/** Keep mask over @p count segments (makeTestCase's @p keep) that
 *  marks both sides of @p split. */
std::vector<bool> splitMask(const Split &split, size_t count);

/**
 * Train the generic classification pipeline on a dataset. Only the
 * segments trainingSplit() names are read; each of them must carry
 * samples, the others may be skipped (empty).
 */
TrainedPipeline trainPipeline(const SignalDataset &dataset,
                              const EngineConfig &config,
                              const TrainingOptions &options = {});

/** A complete generated XPro design for one dataset. */
struct XProDesign
{
    TrainedPipeline pipeline;
    EngineTopology topology;
    PartitionResult partition;
    EngineConfig config;
};

/**
 * One-call design flow: train the classifier, build the topology,
 * and run the Automatic XPro Generator.
 */
XProDesign designXPro(const SignalDataset &dataset,
                      const EngineConfig &config = {},
                      const TrainingOptions &options = {});

} // namespace xpro

#endif // XPRO_CORE_PIPELINE_HH
