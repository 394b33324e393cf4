/**
 * @file
 * Tests for the multi-classification extension (paper Section 5.7):
 * one-vs-rest training, the 4-class gesture dataset, the extended
 * topology, and that the unchanged Automatic XPro Generator handles
 * the multi-class engine.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/logging.hh"
#include "core/partitioner.hh"
#include "core/topology.hh"
#include "data/gestures.hh"
#include "dsp/feature_pool.hh"
#include "ml/multiclass.hh"
#include "gesture_fixture.hh"
#include "sim/system_sim.hh"

namespace
{

using namespace xpro;

/** Small synthetic pool data with one informative column per class. */
MultiClassData
syntheticMultiClass(Rng &rng, size_t per_class, size_t classes,
                    size_t pool)
{
    MultiClassData data;
    data.classCount = classes;
    for (size_t i = 0; i < per_class; ++i) {
        for (size_t cls = 0; cls < classes; ++cls) {
            std::vector<double> row(pool);
            for (size_t c = 0; c < pool; ++c)
                row[c] = rng.gaussian(c == cls ? 1.2 : 0.0, 0.4);
            data.rows.push_back(std::move(row));
            data.labels.push_back(cls);
        }
    }
    return data;
}

RandomSubspaceConfig
smallConfig()
{
    RandomSubspaceConfig config;
    config.subspaceDimension = 4;
    config.candidates = 20;
    config.keepFraction = 0.2;
    config.svm.kernel = {KernelKind::Rbf, 0.5};
    config.svm.c = 5.0;
    config.seed = 7;
    return config;
}

TEST(MultiClassTest, LearnsSyntheticProblem)
{
    Rng rng(1501);
    const MultiClassData train =
        syntheticMultiClass(rng, 40, 3, 10);
    const MultiClassData test = syntheticMultiClass(rng, 25, 3, 10);
    const MultiClassSubspace model =
        MultiClassSubspace::train(train, smallConfig());
    EXPECT_EQ(model.classCount(), 3u);
    EXPECT_GT(model.accuracy(test), 0.8);
}

TEST(MultiClassTest, ScoresMatchPrediction)
{
    Rng rng(1503);
    const MultiClassData train =
        syntheticMultiClass(rng, 30, 3, 8);
    const MultiClassSubspace model =
        MultiClassSubspace::train(train, smallConfig());
    for (size_t i = 0; i < 10; ++i) {
        const auto s = model.scores(train.rows[i]);
        ASSERT_EQ(s.size(), 3u);
        const size_t argmax = static_cast<size_t>(
            std::max_element(s.begin(), s.end()) - s.begin());
        EXPECT_EQ(model.predict(train.rows[i]), argmax);
    }
}

TEST(MultiClassTest, UsedFeaturesAreUnionOverClasses)
{
    Rng rng(1505);
    const MultiClassData train =
        syntheticMultiClass(rng, 30, 3, 12);
    const MultiClassSubspace model =
        MultiClassSubspace::train(train, smallConfig());
    std::set<size_t> expected;
    for (size_t cls = 0; cls < model.classCount(); ++cls) {
        const auto idx =
            model.classEnsemble(cls).usedFeatureIndices();
        expected.insert(idx.begin(), idx.end());
    }
    const auto used = model.usedFeatureIndices();
    EXPECT_EQ(std::set<size_t>(used.begin(), used.end()), expected);
}

TEST(MultiClassTest, InvalidInputsPanic)
{
    MultiClassData bad;
    bad.classCount = 1;
    bad.rows = {{0.0}};
    bad.labels = {0};
    EXPECT_THROW(MultiClassSubspace::train(bad, smallConfig()),
                 PanicError);
    MultiClassData out_of_range;
    out_of_range.classCount = 2;
    out_of_range.rows = {{0.0}};
    out_of_range.labels = {5};
    EXPECT_THROW(
        MultiClassSubspace::train(out_of_range, smallConfig()),
        PanicError);
}

TEST(GestureDatasetTest, ShapeAndBalance)
{
    const GestureDataset ds = makeEmgGestureDataset(50, 3);
    EXPECT_EQ(ds.classCount, 4u);
    EXPECT_EQ(ds.size(), 200u);
    EXPECT_EQ(ds.segmentLength, 132u);
    EXPECT_EQ(ds.classNames.size(), 4u);
    size_t per_class[4] = {0, 0, 0, 0};
    for (const GestureSegment &segment : ds.segments) {
        ASSERT_LT(segment.label, 4u);
        ASSERT_EQ(segment.samples.size(), 132u);
        ++per_class[segment.label];
    }
    for (size_t cls = 0; cls < 4; ++cls)
        EXPECT_EQ(per_class[cls], 50u);
}

TEST(GestureDatasetTest, Deterministic)
{
    const GestureDataset a = makeEmgGestureDataset(10, 3);
    const GestureDataset b = makeEmgGestureDataset(10, 3);
    EXPECT_EQ(a.segments[0].samples, b.segments[0].samples);
}

/** Full multi-class topology fixture. */
class MultiClassTopologyTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        const test::GestureFeatures gestures =
            test::scaledGestureFeatures(40, 11);
        RandomSubspaceConfig config = smallConfig();
        config.subspaceDimension = 8;
        model = new MultiClassSubspace(
            MultiClassSubspace::train(gestures.data, config));
        topology = new EngineTopology(buildMultiClassTopology(
            *model, gestures.segmentLength, EngineConfig{},
            gestures.eventsPerSecond));
    }

    static void
    TearDownTestSuite()
    {
        delete topology;
        delete model;
        topology = nullptr;
        model = nullptr;
    }

    static MultiClassSubspace *model;
    static EngineTopology *topology;
};

MultiClassSubspace *MultiClassTopologyTest::model = nullptr;
EngineTopology *MultiClassTopologyTest::topology = nullptr;

TEST_F(MultiClassTopologyTest, GraphIsValid)
{
    EXPECT_EQ(topology->graph.validate(), "");
}

TEST_F(MultiClassTopologyTest, ArgmaxIsTheTerminal)
{
    const auto terminals = topology->graph.terminals();
    ASSERT_EQ(terminals.size(), 1u);
    EXPECT_EQ(terminals[0], topology->fusionNode);
    EXPECT_EQ(topology->cells[topology->fusionNode].kind,
              ComponentKind::Argmax);
    // One fusion cell per class feeds the argmax.
    EXPECT_EQ(topology->graph.predecessors(topology->fusionNode)
                  .size(),
              model->classCount());
}

TEST_F(MultiClassTopologyTest, SvmCellsCoverEveryClass)
{
    std::set<size_t> classes_seen;
    for (size_t node = 1; node < topology->graph.nodeCount(); ++node) {
        if (topology->cells[node].kind == ComponentKind::Svm)
            classes_seen.insert(topology->cells[node].classIndex);
    }
    EXPECT_EQ(classes_seen.size(), model->classCount());
    size_t expected_svms = 0;
    for (size_t cls = 0; cls < model->classCount(); ++cls)
        expected_svms += model->classEnsemble(cls).bases().size();
    EXPECT_EQ(topology->svmNodes.size(), expected_svms);
}

TEST_F(MultiClassTopologyTest, FeatureCellsAreShared)
{
    // Feature cells = union over classes, not per-class copies.
    size_t feature_cells = 0;
    for (size_t idx = 0; idx < featurePoolSize; ++idx)
        feature_cells += topology->featureNodes[idx] != 0;
    EXPECT_EQ(feature_cells, model->usedFeatureIndices().size());
}

TEST_F(MultiClassTopologyTest, GeneratorHandlesMultiClassEngine)
{
    const WirelessLink link(transceiver(WirelessModel::Model2));
    const PartitionResult result =
        XProGenerator(*topology, link).generate();
    EXPECT_LE(result.delay.total().us(),
              result.delayLimit.us() + 1e-6);
    // Never worse than either single end in energy when both are
    // delay-feasible; at minimum never worse than the best feasible.
    const double cross = result.energy.total().nj();
    const double in_sensor =
        sensorEventEnergy(*topology,
                          Placement::allInSensor(*topology), link)
            .total()
            .nj();
    EXPECT_LE(cross, in_sensor + 1e-6);
}

TEST_F(MultiClassTopologyTest, SimulatorRunsMultiClassEngine)
{
    const WirelessLink link(transceiver(WirelessModel::Model2));
    const Placement placement =
        XProGenerator(*topology, link).generate().placement;
    const SimResult sim =
        simulateEvent(*topology, placement, link);
    EXPECT_GT(sim.completion.us(), 0.0);
    const auto model_energy =
        sensorEventEnergy(*topology, placement, link);
    EXPECT_NEAR(sim.sensorEnergy.total().nj(),
                model_energy.total().nj(), 1e-6);
}

} // namespace
