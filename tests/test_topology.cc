/**
 * @file
 * Unit tests for the engine topology builder.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "core/pipeline.hh"
#include "core/topology.hh"
#include "data/testcases.hh"
#include "fnv_digest.hh"
#include "gesture_fixture.hh"

namespace
{

using namespace xpro;

/** Small, fast training configuration shared by core tests. */
EngineConfig
testConfig()
{
    EngineConfig config;
    config.subspace.candidates = 12;
    config.subspace.keepFraction = 0.25;
    config.subspace.subspaceDimension = 8;
    return config;
}

TrainingOptions
testOptions()
{
    TrainingOptions options;
    options.maxTrainingSegments = 80;
    options.seed = 77;
    return options;
}

/** A 4-class gesture model with its segment length and rate. */
struct GestureModel
{
    MultiClassSubspace model;
    size_t segmentLength = 0;
    double eventsPerSecond = 0.0;
};

GestureModel
trainGestureModel()
{
    const test::GestureFeatures gestures =
        test::scaledGestureFeatures(40, 11);
    RandomSubspaceConfig config = testConfig().subspace;
    config.seed = 7;
    return {MultiClassSubspace::train(gestures.data, config),
            gestures.segmentLength, gestures.eventsPerSecond};
}

class TopologyTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        dataset = new SignalDataset(makeTestCase(TestCase::E1, 42));
        pipeline = new TrainedPipeline(
            trainPipeline(*dataset, testConfig(), testOptions()));
        topology = new EngineTopology(buildEngineTopology(
            pipeline->ensemble, dataset->segmentLength, testConfig(),
            dataset->eventsPerSecond()));
        gestures = new GestureModel(trainGestureModel());
        gestureTopology = new EngineTopology(buildMultiClassTopology(
            gestures->model, gestures->segmentLength, testConfig(),
            gestures->eventsPerSecond));
    }

    static void
    TearDownTestSuite()
    {
        delete gestureTopology;
        delete gestures;
        delete topology;
        delete pipeline;
        delete dataset;
        gestureTopology = nullptr;
        gestures = nullptr;
        topology = nullptr;
        pipeline = nullptr;
        dataset = nullptr;
    }

    /** A built topology with the pool indices its model uses. */
    struct Subject
    {
        const char *name;
        const EngineTopology *topology;
        std::vector<size_t> used;
    };

    /** The binary E1 topology and the 4-class gesture topology. */
    static std::vector<Subject>
    subjects()
    {
        return {{"binary", topology,
                 pipeline->ensemble.usedFeatureIndices()},
                {"4-class", gestureTopology,
                 gestures->model.usedFeatureIndices()}};
    }

    static SignalDataset *dataset;
    static TrainedPipeline *pipeline;
    static EngineTopology *topology;
    static GestureModel *gestures;
    static EngineTopology *gestureTopology;
};

SignalDataset *TopologyTest::dataset = nullptr;
TrainedPipeline *TopologyTest::pipeline = nullptr;
EngineTopology *TopologyTest::topology = nullptr;
GestureModel *TopologyTest::gestures = nullptr;
EngineTopology *TopologyTest::gestureTopology = nullptr;

TEST_F(TopologyTest, GraphIsValid)
{
    for (const Subject &subject : subjects())
        EXPECT_EQ(subject.topology->graph.validate(), "") << subject.name;
}

TEST_F(TopologyTest, SourceCarriesRawSegmentBits)
{
    EXPECT_EQ(topology->graph.node(DataflowGraph::sourceId).outputBits,
              dataset->segmentLength * wordBits);
}

TEST_F(TopologyTest, FusionIsTheOnlyTerminal)
{
    const auto terminals = topology->graph.terminals();
    ASSERT_EQ(terminals.size(), 1u);
    EXPECT_EQ(terminals[0], topology->fusionNode);
    EXPECT_EQ(topology->cells[topology->fusionNode].kind,
              ComponentKind::Fusion);
}

TEST_F(TopologyTest, OneSvmCellPerBaseClassifier)
{
    EXPECT_EQ(topology->svmNodes.size(),
              pipeline->ensemble.bases().size());
    for (size_t b = 0; b < topology->svmNodes.size(); ++b) {
        const CellInfo &info = topology->cells[topology->svmNodes[b]];
        EXPECT_EQ(info.kind, ComponentKind::Svm);
        EXPECT_EQ(info.svmIndex, b);
        // Each SVM reads one feature cell per subspace dimension.
        EXPECT_EQ(topology->graph
                      .predecessors(topology->svmNodes[b])
                      .size(),
                  pipeline->ensemble.bases()[b].featureIndices.size());
    }
}

TEST_F(TopologyTest, FeatureCellsMatchUsedFeatures)
{
    for (const Subject &subject : subjects()) {
        SCOPED_TRACE(subject.name);
        size_t feature_cells = 0;
        for (size_t idx = 0; idx < featurePoolSize; ++idx) {
            if (subject.topology->featureNodes[idx] != 0)
                ++feature_cells;
        }
        EXPECT_EQ(feature_cells, subject.used.size());
        for (size_t idx : subject.used)
            EXPECT_NE(subject.topology->featureNodes[idx], 0u);
    }
}

TEST_F(TopologyTest, DwtChainCoversDeepestUsedLevel)
{
    for (const Subject &subject : subjects()) {
        SCOPED_TRACE(subject.name);
        const EngineTopology &topo = *subject.topology;
        size_t deepest = 0;
        for (size_t idx : subject.used) {
            deepest =
                std::max(deepest,
                         domainLevel(featureFromIndex(idx).domain));
        }
        EXPECT_EQ(topo.dwtNodes.size(), deepest);
        // The chain is connected source -> L1 -> L2 -> ...
        for (size_t k = 0; k < topo.dwtNodes.size(); ++k) {
            const size_t expected_pred =
                k == 0 ? DataflowGraph::sourceId : topo.dwtNodes[k - 1];
            const auto &preds = topo.graph.predecessors(topo.dwtNodes[k]);
            ASSERT_EQ(preds.size(), 1u);
            EXPECT_EQ(preds[0], expected_pred);
        }
    }
}

TEST_F(TopologyTest, AllCellsHavePositiveCosts)
{
    for (const Subject &subject : subjects()) {
        const EngineTopology &topo = *subject.topology;
        for (size_t node = 1; node < topo.graph.nodeCount(); ++node) {
            const CellCosts &costs = topo.graph.node(node).costs;
            EXPECT_GT(costs.sensorEnergy.pj(), 0.0)
                << describeCell(topo, node);
            EXPECT_GT(costs.sensorDelay.ns(), 0.0);
            EXPECT_GT(costs.aggregatorEnergy.pj(), 0.0);
            EXPECT_GT(costs.aggregatorDelay.ns(), 0.0);
        }
    }
}

TEST_F(TopologyTest, StandbyRaisesSensorCostAtLowerEventRates)
{
    const std::pair<EngineTopology, EngineTopology> pairs[] = {
        {buildEngineTopology(pipeline->ensemble, dataset->segmentLength,
                             testConfig(), 1.0),
         buildEngineTopology(pipeline->ensemble, dataset->segmentLength,
                             testConfig(), 10.0)},
        {buildMultiClassTopology(gestures->model,
                                 gestures->segmentLength, testConfig(),
                                 1.0),
         buildMultiClassTopology(gestures->model,
                                 gestures->segmentLength, testConfig(),
                                 10.0)},
    };
    for (const auto &[slow, fast] : pairs) {
        // Same cell: lower event rate => longer idle listening per
        // event.
        EXPECT_GT(slow.graph.node(1).costs.sensorEnergy,
                  fast.graph.node(1).costs.sensorEnergy);
        // Software costs are unaffected.
        EXPECT_EQ(slow.graph.node(1).costs.aggregatorEnergy.pj(),
                  fast.graph.node(1).costs.aggregatorEnergy.pj());
    }
}

TEST_F(TopologyTest, StdReusesVarWhenBothPresent)
{
    for (const Subject &subject : subjects()) {
        SCOPED_TRACE(subject.name);
        const EngineTopology &topo = *subject.topology;
        // Find a domain where both Var and Std cells exist.
        for (size_t d = 0; d < featureDomainCount; ++d) {
            const auto domain = static_cast<FeatureDomain>(d);
            const size_t var_node = topo.featureNodes[featureIndex(
                {domain, FeatureKind::Var})];
            const size_t std_node = topo.featureNodes[featureIndex(
                {domain, FeatureKind::Std})];
            if (var_node == 0 || std_node == 0)
                continue;
            // Std must read from Var, not from the domain producer.
            const auto &preds = topo.graph.predecessors(std_node);
            ASSERT_EQ(preds.size(), 1u);
            EXPECT_EQ(preds[0], var_node);
            // And the reused Std cell is far cheaper than the Var
            // cell.
            EXPECT_LT(topo.graph.node(std_node).costs.sensorEnergy,
                      topo.graph.node(var_node).costs.sensorEnergy);
        }
    }
}

TEST_F(TopologyTest, EdgeBitsShrinkAlongDwtChain)
{
    if (topology->dwtNodes.size() < 2)
        GTEST_SKIP() << "needs at least two DWT levels";
    const size_t l1 = topology->dwtNodes[0];
    const size_t l2 = topology->dwtNodes[1];
    EXPECT_LT(topology->graph.edgeBits(l1, l2),
              topology->graph.edgeBits(DataflowGraph::sourceId, l1));
}

TEST_F(TopologyTest, FeatureOutputsAreSingleWords)
{
    for (const Subject &subject : subjects()) {
        for (size_t idx = 0; idx < featurePoolSize; ++idx) {
            const size_t node = subject.topology->featureNodes[idx];
            if (node != 0) {
                EXPECT_EQ(subject.topology->graph.node(node).outputBits,
                          featureValueBits)
                    << subject.name;
            }
        }
    }
}

TEST_F(TopologyTest, DescribeCellMentionsName)
{
    const std::string desc =
        describeCell(*topology, topology->fusionNode);
    EXPECT_NE(desc.find("Fusion"), std::string::npos);
}

/**
 * Digest of every field the builder sets: per node its name, output
 * bits, cost bits and CellInfo, every edge with its bits, and the
 * node tables. With @p rate_fields false, each cell's sensorStandby
 * and designEventsPerSecond are left out.
 */
uint64_t
topologyDigest(const EngineTopology &topo, bool rate_fields = true)
{
    test::Fnv1aDigest digest;
    const DataflowGraph &graph = topo.graph;
    digest.add(static_cast<uint64_t>(graph.nodeCount()));
    for (size_t id = 0; id < graph.nodeCount(); ++id) {
        const DataflowNode &node = graph.node(id);
        digest.add(node.name);
        digest.add(static_cast<uint64_t>(node.outputBits));
        digest.add(node.costs.sensorEnergy.j());
        digest.add(node.costs.sensorDelay.sec());
        digest.add(node.costs.aggregatorEnergy.j());
        digest.add(node.costs.aggregatorDelay.sec());
        if (rate_fields)
            digest.add(node.costs.sensorStandby.w());
        const CellInfo &info = topo.cells[id];
        digest.add(static_cast<uint64_t>(info.kind));
        digest.add(static_cast<uint64_t>(info.feature.has_value()));
        if (info.feature) {
            digest.add(static_cast<uint64_t>(info.feature->domain));
            digest.add(static_cast<uint64_t>(info.feature->kind));
        }
        digest.add(static_cast<uint64_t>(info.dwtLevel));
        digest.add(static_cast<uint64_t>(info.svmIndex));
        digest.add(static_cast<uint64_t>(info.classIndex));
        digest.add(static_cast<uint64_t>(info.mode));
        for (size_t to : graph.successors(id)) {
            digest.add(static_cast<uint64_t>(id));
            digest.add(static_cast<uint64_t>(to));
            digest.add(static_cast<uint64_t>(graph.edgeBits(id, to)));
        }
    }
    digest.add(static_cast<uint64_t>(topo.fusionNode));
    digest.add(static_cast<uint64_t>(topo.svmNodes.size()));
    for (size_t node : topo.svmNodes)
        digest.add(static_cast<uint64_t>(node));
    for (size_t node : topo.featureNodes)
        digest.add(static_cast<uint64_t>(node));
    digest.add(static_cast<uint64_t>(topo.dwtNodes.size()));
    for (size_t node : topo.dwtNodes)
        digest.add(static_cast<uint64_t>(node));
    digest.add(static_cast<uint64_t>(topo.segmentLength));
    if (rate_fields)
        digest.add(topo.designEventsPerSecond);
    return digest.value();
}

// Fence for the topology builders: node ids, names, costs, edges and
// tables must stay bit-identical. Regenerate only for an intended
// change of the built topologies.
/** C1..M2 at the default EngineConfig, each at its dataset's rate. */
const uint64_t caseTopologyDigests[6] = {
    0x1507a2ef034cfd4dull, 0x633da1076c460592ull,
    0xc222d7d5cc23bd34ull, 0x35723fb4cececa2bull,
    0x40d90d279e8711a1ull, 0x8d565e7ac4193b7full,
};

/** One case (topologyVariantCase) under each non-default config. */
const TestCase topologyVariantCase = TestCase::C1;
const uint64_t variantTopologyDigests[7] = {
    0xa106749b0a7405b8ull, 0x0dd63b0839100070ull,
    0xb81ad372863d535bull, 0x99a64d217d3c71e4ull,
    0x9b1de4243191e021ull, 0x4756d2f684ed9e1aull,
    0x4c0fe7c0f97a55dbull,
};

/** The 4-class gesture topology at the default EngineConfig, without
 *  the standby and rate fields. */
const uint64_t gestureTopologyDigest = 0x3b8e7ac0c7800206ull;

std::vector<EngineConfig>
variantConfigs()
{
    std::vector<EngineConfig> configs(7);
    configs[0].modePolicy = ModePolicy::ForceSerial;
    configs[1].modePolicy = ModePolicy::ForceParallel;
    configs[2].modePolicy = ModePolicy::ForcePipeline;
    configs[3].enableCellReuse = false;
    configs[4].wavelet = Wavelet::Haar;
    configs[5].process = ProcessNode::Tsmc130;
    configs[6].process = ProcessNode::Tsmc45;
    return configs;
}

TEST_F(TopologyTest, TopologyDigestsArePinned)
{
    std::set<uint64_t> distinct;
    for (size_t i = 0; i < allTestCases.size(); ++i) {
        const TestCase tc = allTestCases[i];
        const SignalDataset data = makeTestCase(tc, 42);
        const TrainedPipeline trained =
            trainPipeline(data, testConfig(), testOptions());
        const uint64_t digest = topologyDigest(buildEngineTopology(
            trained.ensemble, data.segmentLength, EngineConfig{},
            data.eventsPerSecond()));
        EXPECT_EQ(digest, caseTopologyDigests[i])
            << testCaseInfo(tc).symbol << std::hex << " got 0x"
            << digest;
        distinct.insert(digest);
        if (tc != topologyVariantCase)
            continue;
        const std::vector<EngineConfig> configs = variantConfigs();
        for (size_t v = 0; v < configs.size(); ++v) {
            const uint64_t variant = topologyDigest(buildEngineTopology(
                trained.ensemble, data.segmentLength, configs[v],
                data.eventsPerSecond()));
            EXPECT_EQ(variant, variantTopologyDigests[v])
                << "config " << v << std::hex << " got 0x" << variant;
            distinct.insert(variant);
        }
    }
    // Every config changes the topology it is pinned for.
    EXPECT_EQ(distinct.size(), 6u + 7u);

    const uint64_t digest = topologyDigest(
        buildMultiClassTopology(gestures->model, gestures->segmentLength,
                                EngineConfig{}, gestures->eventsPerSecond),
        false);
    EXPECT_EQ(digest, gestureTopologyDigest)
        << std::hex << "gestures got 0x" << digest;
}

} // namespace
