/**
 * @file
 * Integration tests: full training pipeline and one-call XPro design
 * on the paper's test cases (scaled-down training budgets).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/logging.hh"
#include "core/pipeline.hh"
#include "data/testcases.hh"

namespace
{

using namespace xpro;

EngineConfig
quickConfig()
{
    EngineConfig config;
    config.subspace.candidates = 15;
    config.subspace.keepFraction = 0.2;
    config.subspace.subspaceDimension = 8;
    return config;
}

TrainingOptions
quickOptions()
{
    TrainingOptions options;
    options.maxTrainingSegments = 100;
    options.seed = 123;
    return options;
}

TEST(PipelineTest, TrainsAboveChanceOnEveryCase)
{
    for (TestCase tc : allTestCases) {
        const SignalDataset dataset = makeTestCase(tc, 5);
        const TrainedPipeline pipeline =
            trainPipeline(dataset, quickConfig(), quickOptions());
        EXPECT_GT(pipeline.testAccuracy, 0.55)
            << testCaseInfo(tc).symbol;
        EXPECT_GT(pipeline.trainCount, 0u);
        EXPECT_GT(pipeline.testCount, 0u);
    }
}

TEST(PipelineTest, EasyCasesReachHighAccuracy)
{
    const SignalDataset dataset = makeTestCase(TestCase::M1, 5);
    const TrainedPipeline pipeline =
        trainPipeline(dataset, quickConfig(), quickOptions());
    EXPECT_GT(pipeline.testAccuracy, 0.9);
}

TEST(PipelineTest, ClassifyMatchesEnsembleOnSegments)
{
    const SignalDataset dataset = makeTestCase(TestCase::C1, 5);
    const TrainedPipeline pipeline =
        trainPipeline(dataset, quickConfig(), quickOptions());
    size_t correct = 0;
    const size_t n = 100;
    for (size_t i = 0; i < n; ++i) {
        correct += pipeline.classify(dataset.segments[i].samples) ==
                   dataset.segments[i].label;
    }
    EXPECT_GT(static_cast<double>(correct) / n, 0.7);
}

TEST(PipelineTest, DesignProducesConsistentArtifacts)
{
    const SignalDataset dataset = makeTestCase(TestCase::E1, 5);
    const XProDesign design =
        designXPro(dataset, quickConfig(), quickOptions());

    EXPECT_EQ(design.topology.segmentLength, dataset.segmentLength);
    EXPECT_EQ(design.topology.graph.validate(), "");
    EXPECT_LE(design.partition.delay.total().us(),
              design.partition.delayLimit.us() + 1e-6);
    // Reported energy matches re-evaluating the placement.
    const WirelessLink link(transceiver(design.config.wireless));
    EXPECT_NEAR(design.partition.energy.total().nj(),
                sensorEventEnergy(design.topology,
                                  design.partition.placement, link)
                    .total()
                    .nj(),
                1e-6);
}

TEST(PipelineTest, DesignIsDeterministic)
{
    const SignalDataset dataset = makeTestCase(TestCase::C2, 5);
    const XProDesign a =
        designXPro(dataset, quickConfig(), quickOptions());
    const XProDesign b =
        designXPro(dataset, quickConfig(), quickOptions());
    EXPECT_EQ(a.partition.placement.sensorCellCount(),
              b.partition.placement.sensorCellCount());
    EXPECT_DOUBLE_EQ(a.partition.energy.total().nj(),
                     b.partition.energy.total().nj());
}

/** FNV-1a over the bytes of a trained pipeline's numbers. */
class ModelDigest
{
  public:
    void
    add(uint64_t value)
    {
        for (int byte = 0; byte < 8; ++byte) {
            _hash ^= (value >> (8 * byte)) & 0xFF;
            _hash *= 0x100000001B3ull;
        }
    }

    void add(double value) { add(std::bit_cast<uint64_t>(value)); }

    void
    add(const std::vector<double> &values)
    {
        add(static_cast<uint64_t>(values.size()));
        for (double v : values)
            add(v);
    }

    uint64_t value() const { return _hash; }

  private:
    uint64_t _hash = 0xCBF29CE484222325ull;
};

/** Every number a trained pipeline carries into the design: the
 *  scaler, each base's subspace, SVM and validation accuracy, the
 *  fusion weights and both accuracies. */
uint64_t
pipelineDigest(const TrainedPipeline &pipeline)
{
    ModelDigest digest;
    digest.add(pipeline.scaler.mins());
    digest.add(pipeline.scaler.maxes());
    const RandomSubspace &ensemble = pipeline.ensemble;
    for (const BaseClassifier &base : ensemble.bases()) {
        digest.add(static_cast<uint64_t>(base.featureIndices.size()));
        for (size_t index : base.featureIndices)
            digest.add(static_cast<uint64_t>(index));
        const Svm &svm = base.model;
        digest.add(static_cast<uint64_t>(svm.supportVectorCount()));
        digest.add(svm.bias());
        digest.add(svm.weights());
        const FlatMatrix svs = svm.supportVectors();
        for (size_t k = 0; k < svs.size(); ++k)
            for (double v : svs[k])
                digest.add(v);
        digest.add(base.validationAccuracy);
    }
    digest.add(ensemble.fusionWeights());
    digest.add(ensemble.fusionBias());
    digest.add(pipeline.trainAccuracy);
    digest.add(pipeline.testAccuracy);
    digest.add(static_cast<uint64_t>(pipeline.trainCount));
    digest.add(static_cast<uint64_t>(pipeline.testCount));
    return digest.value();
}

// Fence for any change to synthesis, feature extraction, splitting
// or SVM training: the trained models must stay bit-identical.
// Values generated by the working-set SMO solver that trains until
// the duality gap closes, on datasets synthesized with common/simd's
// sin and cos; regenerate only for an intended model change.
/** The fleet's per-node settings (FleetNodeSpec defaults) on the
 *  first six nodes of heterogeneousFleet(n, 1): case i, seed i+1. */
const uint64_t fleetSettingsDigests[6] = {
    0x50b61cf3f28c08b1ull, 0xa411cbdbebaaaa3bull,
    0x343a76d5f66e3152ull, 0xbea3ae1ad17880dbull,
    0x20b7bb872052dfc6ull, 0xc4cd41453e47bd25ull,
};

EngineConfig
fleetSettingsConfig()
{
    EngineConfig config;
    config.subspace.candidates = 40;
    return config;
}

TrainingOptions
fleetSettingsOptions(size_t node)
{
    TrainingOptions options;
    options.maxTrainingSegments = 250;
    options.seed = node + 1;
    return options;
}

TEST(PipelineTest, FleetSettingsModelDigestsArePinned)
{
    for (size_t i = 0; i < allTestCases.size(); ++i) {
        const TestCase tc = allTestCases[i];
        const TrainingOptions options = fleetSettingsOptions(i);
        const TrainedPipeline pipeline =
            trainPipeline(makeTestCase(tc, options.seed),
                          fleetSettingsConfig(), options);
        EXPECT_EQ(pipelineDigest(pipeline), fleetSettingsDigests[i])
            << testCaseInfo(tc).symbol << std::hex << " got 0x"
            << pipelineDigest(pipeline);
    }
}

TEST(PipelineTest, SplitMaskedDatasetsTrainThePinnedModels)
{
    // The fleet design path: synthesize only the segments the split
    // reads, then train. The models equal the full-dataset ones.
    for (size_t i = 0; i < allTestCases.size(); ++i) {
        const TestCase tc = allTestCases[i];
        const TrainingOptions options = fleetSettingsOptions(i);
        const std::vector<int> labels = testCaseLabels(tc);
        const SignalDataset dataset = makeTestCase(
            tc, options.seed,
            splitMask(trainingSplit(labels, options), labels.size()));
        const TrainedPipeline pipeline =
            trainPipeline(dataset, fleetSettingsConfig(), options);
        EXPECT_EQ(pipelineDigest(pipeline), fleetSettingsDigests[i])
            << testCaseInfo(tc).symbol;
    }
}

TEST(PipelineTest, TrainingRejectsAnUnsynthesizedSegment)
{
    const TrainingOptions options = quickOptions();
    const std::vector<int> labels = testCaseLabels(TestCase::C1);
    const Split split = trainingSplit(labels, options);
    for (size_t missing :
         {split.trainIndices.front(), split.testIndices.back()}) {
        std::vector<bool> keep = splitMask(split, labels.size());
        keep[missing] = false;
        const SignalDataset dataset =
            makeTestCase(TestCase::C1, options.seed, keep);
        EXPECT_THROW(trainPipeline(dataset, quickConfig(), options),
                     PanicError)
            << missing;
    }
}

TEST(PipelineTest, TrainingSplitCapsOnlyTheTrainingSide)
{
    const std::vector<int> labels = testCaseLabels(TestCase::M1);
    TrainingOptions options;
    options.seed = 9;
    const Split full = trainingSplit(labels, options);
    options.maxTrainingSegments = 100;
    const Split capped = trainingSplit(labels, options);
    ASSERT_EQ(capped.trainIndices.size(), 100u);
    EXPECT_TRUE(std::equal(capped.trainIndices.begin(),
                           capped.trainIndices.end(),
                           full.trainIndices.begin()));
    EXPECT_EQ(capped.testIndices, full.testIndices);
    EXPECT_EQ(full.trainIndices.size() + full.testIndices.size(),
              labels.size());
}

TEST(PipelineTest, DefaultSettingsModelDigestIsPinned)
{
    const TrainedPipeline pipeline =
        trainPipeline(makeTestCase(TestCase::C1), EngineConfig{});
    EXPECT_EQ(pipelineDigest(pipeline), 0x1e022766a1f4f3edull)
        << std::hex << "got 0x" << pipelineDigest(pipeline);
}

TEST(PipelineTest, TinyDatasetIsRejected)
{
    SignalDataset dataset;
    dataset.segments.resize(3);
    EXPECT_THROW(trainPipeline(dataset, quickConfig(), {}),
                 PanicError);
}

} // namespace
