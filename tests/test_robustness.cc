/**
 * @file
 * Robustness sweeps: the generator, energy/delay models and
 * simulator under extreme cost values, degenerate topologies and
 * the full (node x wireless) configuration grid. These are the
 * failure-injection counterparts of the happy-path tests: nothing
 * here should crash, loop or break an invariant.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "core/partitioner.hh"
#include "sim/system_sim.hh"
#include "topology_fixtures.hh"

namespace
{

using namespace xpro;
using xpro::test::CellSpec;
using xpro::test::MiniTopology;
using xpro::test::chainTopology;

/** Invariants every (topology, link) pair must satisfy. */
void
checkInvariants(const EngineTopology &topo, const WirelessLink &link)
{
    XProGenerator gen(topo, link);
    const PartitionResult result = gen.generate();

    // Delay limit respected.
    EXPECT_LE(result.delay.total().us(),
              result.delayLimit.us() + 1e-6);

    // Reported energy equals re-evaluated energy.
    EXPECT_NEAR(result.energy.total().nj(),
                sensorEventEnergy(topo, result.placement, link)
                    .total()
                    .nj(),
                1e-6);

    // Never worse than the best delay-feasible single end.
    const Time limit = result.delayLimit;
    for (const Placement &single :
         {Placement::allInSensor(topo),
          Placement::allInAggregator(topo)}) {
        if (eventDelay(topo, single, link).total() > limit)
            continue;
        EXPECT_LE(result.energy.total().nj(),
                  sensorEventEnergy(topo, single, link).total().nj() +
                      1e-6);
    }

    // The simulator agrees on energy and never beats the critical
    // path.
    const SimResult sim =
        simulateEvent(topo, result.placement, link);
    EXPECT_NEAR(sim.sensorEnergy.total().nj(),
                result.energy.total().nj(), 1e-6);
    EXPECT_GE(sim.completion.us() + 1e-9,
              result.delay.total().us() -
                  // The analytic result transfer may overlap in the
                  // breakdown; allow rounding noise only.
                  1e-6);
}

TEST(RobustnessTest, ExtremeCellCosts)
{
    const WirelessLink link(transceiver(WirelessModel::Model2));
    // Near-zero and enormous costs in every combination.
    const double values[] = {0.001, 1.0, 1e6};
    for (double feature : values) {
        for (double svm : values) {
            for (double fusion : values) {
                checkInvariants(
                    chainTopology(feature, svm, fusion, 1024), link);
            }
        }
    }
}

TEST(RobustnessTest, ExtremePayloads)
{
    const WirelessLink link(transceiver(WirelessModel::Model2));
    for (size_t bits : {size_t{8}, size_t{1024}, size_t{1} << 20})
        checkInvariants(chainTopology(100, 100, 100, bits), link);
}

TEST(RobustnessTest, SingleCellTopology)
{
    MiniTopology mini(256);
    CellSpec spec;
    const size_t only = mini.addCell(spec);
    mini.connect(DataflowGraph::sourceId, only);
    const EngineTopology topo = mini.build(only);
    const WirelessLink link(transceiver(WirelessModel::Model2));
    checkInvariants(topo, link);
}

TEST(RobustnessTest, WideFanoutTopology)
{
    // One source feeding 40 parallel cells into one fusion.
    MiniTopology mini(4096);
    CellSpec spec;
    std::vector<size_t> cells;
    for (int i = 0; i < 40; ++i) {
        spec.sensorNj = 10.0 * (i + 1);
        const size_t id = mini.addCell(spec);
        mini.connect(DataflowGraph::sourceId, id);
        cells.push_back(id);
    }
    const size_t fusion = mini.addCell(spec);
    for (size_t c : cells)
        mini.connect(c, fusion);
    const EngineTopology topo = mini.build(fusion);
    const WirelessLink link(transceiver(WirelessModel::Model2));
    checkInvariants(topo, link);
}

TEST(RobustnessTest, DeepChainTopology)
{
    MiniTopology mini(1024);
    CellSpec spec;
    size_t prev = DataflowGraph::sourceId;
    size_t last = 0;
    for (int i = 0; i < 60; ++i) {
        spec.sensorNj = 20.0 + 5.0 * i;
        last = mini.addCell(spec);
        mini.connect(prev, last);
        prev = last;
    }
    const EngineTopology topo = mini.build(last);
    const WirelessLink link(transceiver(WirelessModel::Model2));
    checkInvariants(topo, link);
}

/** Grid sweep: every (process node, wireless model) combination. */
class ConfigGridTest
    : public ::testing::TestWithParam<
          std::tuple<ProcessNode, WirelessModel>>
{
};

TEST_P(ConfigGridTest, InvariantsHoldEverywhere)
{
    const auto [node, model] = GetParam();
    (void)node; // the mini fixture carries explicit costs
    const WirelessLink link(transceiver(model));
    Rng rng(7000 + static_cast<uint64_t>(model));
    for (int trial = 0; trial < 5; ++trial) {
        MiniTopology mini(512 + 512 * rng.below(8));
        CellSpec spec;
        std::vector<size_t> features;
        for (size_t i = 0; i < 2 + rng.below(3); ++i) {
            spec.sensorNj = rng.uniform(5.0, 5000.0);
            spec.sensorUs = rng.uniform(5.0, 500.0);
            const size_t id = mini.addCell(spec);
            mini.connect(DataflowGraph::sourceId, id);
            features.push_back(id);
        }
        const size_t fusion = mini.addCell(spec);
        for (size_t f : features)
            mini.connect(f, fusion);
        checkInvariants(mini.build(fusion), link);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConfigGridTest,
    ::testing::Combine(::testing::ValuesIn(allProcessNodes),
                       ::testing::ValuesIn(allWirelessModels)));

} // namespace
