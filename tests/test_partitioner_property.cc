/**
 * @file
 * Property-based oracle suite for the Automatic XPro Generator,
 * driven by seeded random DAG topologies rather than hand-built
 * fixtures. Pins down the three contracts the warm-started
 * generator rests on:
 *
 *  - the min-cut capacity equals the induced placement's modeled
 *    sensor energy (the s-t graph *is* the energy model);
 *  - on small topologies the cut matches exhaustive enumeration of
 *    all 2^n placements;
 *  - warm-started sweeps (ascending, descending, and admission
 *    reweights) are indistinguishable from cold solves at every
 *    lambda, and the parallel candidate evaluation reproduces the
 *    sequential design bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.hh"
#include "core/partitioner.hh"
#include "topology_fixtures.hh"

namespace
{

using namespace xpro;
using xpro::test::CellSpec;
using xpro::test::MiniTopology;

const WirelessLink link2(transceiver(WirelessModel::Model2));

/**
 * Random DAG topology with up to 12 cells (exhaustively enumerable):
 * every cell consumes the raw source or earlier cells at random, and
 * dangling cells are wired into the fusion cell.
 */
EngineTopology
randomDag(Rng &rng)
{
    MiniTopology mini(256 + 64 * rng.below(16));
    const size_t cells = 2 + rng.below(10); // excluding fusion
    std::vector<size_t> ids;
    std::vector<bool> has_consumer;
    for (size_t i = 0; i < cells; ++i) {
        CellSpec spec;
        spec.name = "c";
        spec.name += std::to_string(i);
        spec.sensorNj = rng.uniform(10.0, 4000.0);
        spec.aggregatorNj = rng.uniform(50.0, 6000.0);
        spec.sensorUs = rng.uniform(5.0, 400.0);
        spec.aggregatorUs = rng.uniform(1.0, 40.0);
        spec.outputBits = 16 + 16 * rng.below(4);
        const size_t id = mini.addCell(
            spec, rng.chance(0.5) ? ComponentKind::Var
                                  : ComponentKind::Svm);
        bool fed = false;
        for (size_t j = 0; j < ids.size(); ++j) {
            if (rng.chance(0.35)) {
                mini.connect(ids[j], id);
                has_consumer[j] = true;
                fed = true;
            }
        }
        if (!fed || rng.chance(0.3))
            mini.connect(DataflowGraph::sourceId, id);
        ids.push_back(id);
        has_consumer.push_back(false);
    }
    CellSpec fuse;
    fuse.name = "fusion";
    fuse.sensorNj = rng.uniform(5.0, 200.0);
    const size_t fusion = mini.addCell(fuse);
    for (size_t j = 0; j < ids.size(); ++j) {
        if (!has_consumer[j] || rng.chance(0.2))
            mini.connect(ids[j], fusion);
    }
    return mini.build(fusion);
}

/** The generator's geometric sweep schedule, optionally reversed. */
std::vector<double>
lambdaSchedule(bool descending)
{
    std::vector<double> lambdas;
    for (double lambda = 1e-10; lambda <= 1e4; lambda *= 1.3)
        lambdas.push_back(lambda);
    if (descending)
        std::reverse(lambdas.begin(), lambdas.end());
    return lambdas;
}

bool
samePlacement(const Placement &a, const Placement &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t u = 0; u < a.size(); ++u) {
        if (a.inSensor(u) != b.inSensor(u))
            return false;
    }
    return true;
}

class GeneratorPropertyTest
    : public ::testing::TestWithParam<uint64_t>
{
};

/**
 * The s-t graph is the energy model: at lambda == 0 the min-cut
 * capacity is exactly the induced placement's sensor event energy,
 * and under an admission penalty it is exactly the penalized
 * objective.
 */
TEST_P(GeneratorPropertyTest, CutCapacityEqualsSensorEnergy)
{
    Rng rng(GetParam());
    const EngineTopology topo = randomDag(rng);
    XProGenerator gen(topo, link2);
    const LambdaCut cut = gen.cutAt(0.0);
    const double modeled =
        sensorEventEnergy(topo, cut.placement, link2).total().j();
    EXPECT_NEAR(cut.cutValue, modeled,
                1e-9 * (1.0 + modeled));

    GeneratorOptions options;
    options.aggregatorEnergyWeight = 0.7;
    XProGenerator penalized(topo, link2, options);
    const LambdaCut pcut = penalized.cutAt(0.0);
    const double pobjective =
        penalized.objective(pcut.placement).j();
    EXPECT_NEAR(pcut.cutValue, pobjective,
                1e-9 * (1.0 + pobjective));
}

/**
 * Oracle equivalence: on these <= 12-cell topologies the cut's
 * energy matches brute-force enumeration of every placement.
 */
TEST_P(GeneratorPropertyTest, MatchesExhaustiveEnumeration)
{
    Rng rng(GetParam() + 100);
    const EngineTopology topo = randomDag(rng);
    ASSERT_LE(topo.graph.cellCount(), 12u);
    XProGenerator gen(topo, link2);
    const Placement via_cut = gen.minimumEnergyPlacement();
    const Placement oracle =
        gen.exhaustiveOptimum(Time::hours(1.0), 12);
    const double cut_energy =
        sensorEventEnergy(topo, via_cut, link2).total().nj();
    const double oracle_energy =
        sensorEventEnergy(topo, oracle, link2).total().nj();
    EXPECT_NEAR(cut_energy, oracle_energy,
                1e-6 * (1.0 + oracle_energy));
}

/**
 * Warm-start transparency: a single generator swept across the full
 * lambda schedule — ascending or descending, so capacity updates go
 * both up and down — induces the same placement and cut value as a
 * fresh generator solving each lambda from zero flow.
 */
TEST_P(GeneratorPropertyTest, WarmSweepMatchesColdSolves)
{
    Rng rng(GetParam() + 200);
    const EngineTopology topo = randomDag(rng);
    for (bool descending : {false, true}) {
        XProGenerator warm_gen(topo, link2);
        for (double lambda : lambdaSchedule(descending)) {
            const LambdaCut warm = warm_gen.cutAt(lambda);
            const LambdaCut cold =
                XProGenerator(topo, link2).cutAt(lambda);
            EXPECT_TRUE(samePlacement(warm.placement,
                                      cold.placement))
                << "lambda " << lambda << " descending "
                << descending;
            EXPECT_NEAR(warm.cutValue, cold.cutValue,
                        1e-9 * (1.0 + cold.cutValue))
                << "lambda " << lambda;
        }
    }
}

/**
 * Admission reweighting keeps the warm network honest: tightening
 * and relaxing the aggregator-energy penalty on one instance gives
 * the same cut as a generator built fresh at that weight.
 */
TEST_P(GeneratorPropertyTest, PenaltyReweightMatchesFreshGenerator)
{
    Rng rng(GetParam() + 300);
    const EngineTopology topo = randomDag(rng);
    XProGenerator warm_gen(topo, link2);
    for (double weight : {0.0, 0.5, 2.0, 0.25, 8.0, 0.0}) {
        warm_gen.setAggregatorEnergyWeight(weight);
        const LambdaCut warm = warm_gen.cutAt(0.0);
        GeneratorOptions options;
        options.aggregatorEnergyWeight = weight;
        const LambdaCut cold =
            XProGenerator(topo, link2, options).cutAt(0.0);
        EXPECT_TRUE(samePlacement(warm.placement, cold.placement))
            << "weight " << weight;
        EXPECT_NEAR(warm.cutValue, cold.cutValue,
                    1e-9 * (1.0 + cold.cutValue))
            << "weight " << weight;
    }
}

/**
 * Determinism across worker counts: the parallel candidate
 * evaluation of generate() returns the same design as the
 * sequential path.
 */
TEST_P(GeneratorPropertyTest, ParallelSweepMatchesSequential)
{
    Rng rng(GetParam() + 400);
    const EngineTopology topo = randomDag(rng);
    const PartitionResult sequential =
        XProGenerator(topo, link2).generate();
    for (size_t workers : {2u, 5u}) {
        GeneratorOptions options;
        options.sweepWorkers = workers;
        const PartitionResult parallel =
            XProGenerator(topo, link2, options).generate();
        EXPECT_TRUE(samePlacement(sequential.placement,
                                  parallel.placement))
            << "workers " << workers;
        EXPECT_DOUBLE_EQ(sequential.energy.total().nj(),
                         parallel.energy.total().nj())
            << "workers " << workers;
        EXPECT_DOUBLE_EQ(sequential.delay.total().us(),
                         parallel.delay.total().us())
            << "workers " << workers;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorPropertyTest,
                         ::testing::Range(uint64_t{7000},
                                          uint64_t{7012}));

} // namespace
