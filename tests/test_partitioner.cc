/**
 * @file
 * Unit and property tests for the Automatic XPro Generator: min-cut
 * correctness against an exhaustive oracle, the cut-value ==
 * energy-model invariant, the never-worse-than-single-end guarantee
 * and the delay constraint.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "core/partitioner.hh"
#include "topology_fixtures.hh"

namespace
{

using namespace xpro;
using xpro::test::CellSpec;
using xpro::test::MiniTopology;
using xpro::test::chainTopology;

const WirelessLink link2(transceiver(WirelessModel::Model2));

/** Random miniature topology with layered structure. */
EngineTopology
randomTopology(Rng &rng)
{
    MiniTopology mini(256 + 64 * rng.below(32));
    const size_t features = 1 + rng.below(4);
    const size_t svms = 1 + rng.below(3);
    std::vector<size_t> feature_nodes;
    for (size_t i = 0; i < features; ++i) {
        CellSpec spec;
        spec.name = "f";
        spec.name += std::to_string(i);
        spec.sensorNj = rng.uniform(20.0, 3000.0);
        spec.aggregatorNj = rng.uniform(100.0, 5000.0);
        spec.sensorUs = rng.uniform(10.0, 400.0);
        spec.aggregatorUs = rng.uniform(1.0, 40.0);
        const size_t id = mini.addCell(spec, ComponentKind::Var);
        mini.connect(DataflowGraph::sourceId, id);
        feature_nodes.push_back(id);
    }
    std::vector<size_t> svm_nodes;
    for (size_t i = 0; i < svms; ++i) {
        CellSpec spec;
        spec.name = "s";
        spec.name += std::to_string(i);
        spec.sensorNj = rng.uniform(50.0, 4000.0);
        spec.aggregatorNj = rng.uniform(100.0, 5000.0);
        spec.sensorUs = rng.uniform(10.0, 400.0);
        spec.aggregatorUs = rng.uniform(1.0, 40.0);
        const size_t id = mini.addCell(spec, ComponentKind::Svm);
        for (size_t f : feature_nodes) {
            if (rng.chance(0.7))
                mini.connect(f, id);
        }
        // Guarantee connectivity.
        mini.connect(feature_nodes[rng.below(feature_nodes.size())],
                     id);
        svm_nodes.push_back(id);
    }
    CellSpec fusion_spec;
    fusion_spec.name = "fusion";
    fusion_spec.sensorNj = rng.uniform(5.0, 100.0);
    const size_t fusion = mini.addCell(fusion_spec);
    for (size_t s : svm_nodes)
        mini.connect(s, fusion);
    return mini.build(fusion);
}

TEST(PartitionerTest, PrefersSensorFrontWhenComputeIsCheap)
{
    // Tiny compute, big raw payload: the sensor keeps at least the
    // compressing front cell (the raw segment never crosses), and
    // since every intermediate value is one word, the cheapest cut
    // transmits right after the first cell.
    const EngineTopology topo = chainTopology(5, 5, 5, 8192);
    const Placement p =
        XProGenerator(topo, link2).minimumEnergyPlacement();
    EXPECT_TRUE(p.inSensor(1));
    EXPECT_FALSE(p.rawDataTransmitted(topo));
    const double cross =
        sensorEventEnergy(topo, p, link2).total().nj();
    EXPECT_LE(cross, sensorEventEnergy(
                         topo, Placement::allInSensor(topo), link2)
                         .total()
                         .nj() +
                         1e-9);
    EXPECT_LT(cross, sensorEventEnergy(
                         topo, Placement::allInAggregator(topo),
                         link2)
                         .total()
                         .nj());
}

TEST(PartitionerTest, PrefersAggregatorWhenComputeIsExpensive)
{
    // Compute far above the raw transfer cost: ship the raw data.
    const EngineTopology topo = chainTopology(9000, 9000, 9000, 256);
    const Placement p =
        XProGenerator(topo, link2).minimumEnergyPlacement();
    EXPECT_EQ(p.sensorCellCount(), 0u);
}

TEST(PartitionerTest, FindsMidChainCut)
{
    // Cheap feature compressing 8192 bits to one word, expensive
    // classifier: cut after the feature.
    const EngineTopology topo = chainTopology(50, 9000, 9000, 8192);
    const Placement p =
        XProGenerator(topo, link2).minimumEnergyPlacement();
    EXPECT_TRUE(p.inSensor(1));
    EXPECT_FALSE(p.inSensor(2));
    EXPECT_FALSE(p.inSensor(3));
}

TEST(PartitionerTest, CutValueEqualsEnergyModel)
{
    Rng rng(901);
    for (int trial = 0; trial < 40; ++trial) {
        const EngineTopology topo = randomTopology(rng);
        XProGenerator gen(topo, link2);
        const Placement p = gen.minimumEnergyPlacement();
        // The induced placement's modeled energy must equal the
        // energy of the best placement found exhaustively (the cut
        // is optimal and consistent with the model).
        const Placement oracle = gen.exhaustiveOptimum(
            Time::hours(1.0)); // effectively unconstrained
        const double via_cut =
            sensorEventEnergy(topo, p, link2).total().nj();
        const double via_oracle =
            sensorEventEnergy(topo, oracle, link2).total().nj();
        EXPECT_NEAR(via_cut, via_oracle, 1e-6)
            << "trial " << trial;
    }
}

TEST(PartitionerTest, NeverWorseThanEitherSingleEnd)
{
    Rng rng(903);
    for (int trial = 0; trial < 40; ++trial) {
        const EngineTopology topo = randomTopology(rng);
        const Placement p =
            XProGenerator(topo, link2).minimumEnergyPlacement();
        const double cross =
            sensorEventEnergy(topo, p, link2).total().nj();
        const double in_sensor =
            sensorEventEnergy(topo, Placement::allInSensor(topo),
                              link2)
                .total()
                .nj();
        const double in_aggregator =
            sensorEventEnergy(topo,
                              Placement::allInAggregator(topo),
                              link2)
                .total()
                .nj();
        EXPECT_LE(cross, in_sensor + 1e-9) << "trial " << trial;
        EXPECT_LE(cross, in_aggregator + 1e-9) << "trial " << trial;
    }
}

TEST(PartitionerTest, GenerateMeetsDelayLimit)
{
    Rng rng(905);
    for (int trial = 0; trial < 30; ++trial) {
        const EngineTopology topo = randomTopology(rng);
        XProGenerator gen(topo, link2);
        const PartitionResult result = gen.generate();
        EXPECT_LE(result.delay.total().us(),
                  result.delayLimit.us() + 1e-6)
            << "trial " << trial;
    }
}

TEST(PartitionerTest, DelayLimitIsMinOfSingleEnds)
{
    const EngineTopology topo = chainTopology(100, 200, 50, 4096);
    XProGenerator gen(topo, link2);
    const Time t_sensor =
        eventDelay(topo, Placement::allInSensor(topo), link2)
            .total();
    const Time t_agg =
        eventDelay(topo, Placement::allInAggregator(topo), link2)
            .total();
    EXPECT_DOUBLE_EQ(gen.delayLimit().us(),
                     std::min(t_sensor, t_agg).us());
}

TEST(PartitionerTest, ConstrainedResultMatchesOracleEnergy)
{
    Rng rng(907);
    for (int trial = 0; trial < 25; ++trial) {
        const EngineTopology topo = randomTopology(rng);
        XProGenerator gen(topo, link2);
        const PartitionResult result = gen.generate();
        const Placement oracle =
            gen.exhaustiveOptimum(result.delayLimit);
        const double got =
            sensorEventEnergy(topo, result.placement, link2)
                .total()
                .nj();
        const double best =
            sensorEventEnergy(topo, oracle, link2).total().nj();
        // The Lagrangian sweep is a heuristic under a binding delay
        // constraint; it must still be close to the oracle and never
        // better (oracle is exact).
        EXPECT_GE(got, best - 1e-6) << "trial " << trial;
        EXPECT_LE(got, 2.0 * best + 1e-6) << "trial " << trial;
        if (result.unconstrainedFeasible) {
            EXPECT_NEAR(got, best, 1e-6) << "trial " << trial;
        }
    }
}

TEST(PartitionerTest, SingleEndDesignsAreFeasibleFallbacks)
{
    // Pathological costs: generate() must still return something
    // meeting the limit.
    const EngineTopology topo =
        chainTopology(50000, 50000, 50000, 64);
    const PartitionResult result =
        XProGenerator(topo, link2).generate();
    EXPECT_LE(result.delay.total().us(),
              result.delayLimit.us() + 1e-6);
}

TEST(PartitionerTest, ExhaustiveGuardRejectsLargeTopologies)
{
    Rng rng(909);
    const EngineTopology topo = randomTopology(rng);
    EXPECT_THROW(XProGenerator(topo, link2)
                     .exhaustiveOptimum(Time::hours(1.0), 2),
                 FatalError);
}

TEST(PartitionerTest, BroadcastMakesSharedFeatureCheaperToOffload)
{
    // Two expensive SVMs sharing one feature: offloading both pays
    // the feature broadcast once, so the cut offloads them together.
    MiniTopology mini(512);
    CellSpec feat;
    feat.sensorNj = 50.0;
    const size_t f = mini.addCell(feat, ComponentKind::Var);
    CellSpec svm;
    svm.sensorNj = 400.0;
    const size_t s1 = mini.addCell(svm, ComponentKind::Svm);
    const size_t s2 = mini.addCell(svm, ComponentKind::Svm);
    CellSpec fuse;
    fuse.sensorNj = 10.0;
    const size_t z = mini.addCell(fuse);
    mini.connect(DataflowGraph::sourceId, f);
    mini.connect(f, s1);
    mini.connect(f, s2);
    mini.connect(s1, z);
    mini.connect(s2, z);
    const EngineTopology topo = mini.build(z);

    const Placement p =
        XProGenerator(topo, link2).minimumEnergyPlacement();
    // Feature value broadcast (40 bits, ~61 nJ) is cheaper than
    // 800 nJ of SVM compute: both SVMs and the fusion offload.
    EXPECT_TRUE(p.inSensor(f));
    EXPECT_FALSE(p.inSensor(s1));
    EXPECT_FALSE(p.inSensor(s2));
    EXPECT_FALSE(p.inSensor(z));
}

} // namespace
