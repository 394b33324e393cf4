/**
 * @file
 * Generator throughput bench: the cost of one Automatic-XPro-
 * Generator delay sweep on one persistent flow network versus a
 * network rebuilt per lambda.
 *
 * A cold sweep builds a fresh generator and flow network at every
 * lambda; a warm sweep keeps one generator, whose persistent network
 * only has its edge capacities re-priced before each Dinic solve
 * (graph/flow_network). Every solve starts from zero flow either
 * way, and both must induce identical placements at every lambda —
 * the min-cut source side is canonical. The gated claims:
 *
 *  - warm sweep >= 3x faster than cold on the largest Table-1
 *    topology (32 lambda points): skipping the rebuild pays;
 *  - placements identical at every point;
 *  - the characterization cache absorbs at least half of the cell
 *    cost-model lookups while building the six Table-1 topologies.
 *
 * A 200-cell synthetic topology is also timed (unchecked) to show
 * the persistent network's margin at fleet-design scale.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/random.hh"
#include "core/partitioner.hh"
#include "hw/cost_cache.hh"

using namespace xpro;
using namespace xpro::bench;

namespace
{

/** Layered random topology with the given number of cells. */
EngineTopology
syntheticTopology(size_t features, size_t svms, uint64_t seed)
{
    Rng rng(seed);
    EngineTopology topo;
    topo.graph = DataflowGraph(4096);
    topo.cells.resize(1);
    topo.segmentLength = 128;

    auto add = [&](const std::string &name, ComponentKind kind) {
        DataflowNode node;
        node.name = name;
        node.outputBits = 32;
        node.costs.sensorEnergy =
            Energy::nanos(rng.uniform(20.0, 2000.0));
        node.costs.aggregatorEnergy =
            Energy::nanos(rng.uniform(100.0, 5000.0));
        node.costs.sensorDelay =
            Time::micros(rng.uniform(10.0, 300.0));
        node.costs.aggregatorDelay =
            Time::micros(rng.uniform(1.0, 30.0));
        const size_t id = topo.graph.addCell(node);
        CellInfo info;
        info.kind = kind;
        topo.cells.push_back(info);
        return id;
    };

    std::vector<size_t> feature_nodes;
    for (size_t i = 0; i < features; ++i) {
        std::string name = "f";
        name += std::to_string(i);
        const size_t id = add(name, ComponentKind::Var);
        topo.graph.addEdge(DataflowGraph::sourceId, id);
        feature_nodes.push_back(id);
    }
    std::vector<size_t> svm_nodes;
    for (size_t i = 0; i < svms; ++i) {
        std::string name = "s";
        name += std::to_string(i);
        const size_t id = add(name, ComponentKind::Svm);
        for (size_t f : feature_nodes) {
            if (rng.chance(0.5))
                topo.graph.addEdge(f, id);
        }
        topo.graph.addEdge(
            feature_nodes[rng.below(feature_nodes.size())], id);
        svm_nodes.push_back(id);
    }
    const size_t fusion = add("fusion", ComponentKind::Fusion);
    for (size_t s : svm_nodes)
        topo.graph.addEdge(s, fusion);
    topo.fusionNode = fusion;
    return topo;
}

constexpr size_t lambdaPoints = 32;

/** 32 geometric lambda points spanning the generate() sweep range. */
std::vector<double>
lambdaSchedule()
{
    std::vector<double> lambdas;
    lambdas.reserve(lambdaPoints);
    double lambda = 1e-10;
    // 14 decades over 31 steps.
    const double ratio = std::pow(10.0, 14.0 / 31.0);
    for (size_t i = 0; i < lambdaPoints; ++i, lambda *= ratio)
        lambdas.push_back(lambda);
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

/** One cold sweep: a fresh generator (new network, zero flow) per
 *  lambda. */
std::vector<LambdaCut>
coldSweep(const EngineTopology &topo, const WirelessLink &link,
          const std::vector<double> &lambdas)
{
    std::vector<LambdaCut> cuts;
    cuts.reserve(lambdas.size());
    for (double lambda : lambdas)
        cuts.push_back(XProGenerator(topo, link).cutAt(lambda));
    return cuts;
}

/** One warm sweep: a single generator re-prices its network across
 *  all lambdas. */
std::vector<LambdaCut>
warmSweep(const EngineTopology &topo, const WirelessLink &link,
          const std::vector<double> &lambdas)
{
    XProGenerator generator(topo, link);
    std::vector<LambdaCut> cuts;
    cuts.reserve(lambdas.size());
    for (double lambda : lambdas)
        cuts.push_back(generator.cutAt(lambda));
    return cuts;
}

struct SweepTiming
{
    double coldSec = 0.0;
    double warmSec = 0.0;

    double speedup() const { return coldSec / warmSec; }
};

SweepTiming
timeSweeps(const EngineTopology &topo, const WirelessLink &link,
           const std::vector<double> &lambdas, size_t reps)
{
    SweepTiming timing;
    for (size_t rep = 0; rep < reps; ++rep) {
        SteadyTimer timer;
        coldSweep(topo, link, lambdas);
        timing.coldSec += timer.seconds();
        timer.restart();
        warmSweep(topo, link, lambdas);
        timing.warmSec += timer.seconds();
    }
    return timing;
}

} // namespace

int
main()
{
    ShapeChecker checker;
    CaseLibrary library;
    const EngineConfig config = paperConfig();

    // The six Table-1 topologies; the sweep runs on the largest.
    std::printf("== Table-1 topologies ==\n\n");
    CellCostCache::instance().clear();
    TestCase largest_case = TestCase::C1;
    size_t largest_cells = 0;
    std::map<TestCase, EngineTopology> topologies;
    for (TestCase tc : allTestCases) {
        EngineTopology topo = library.topology(tc, config);
        const size_t cells = topo.graph.cellCount();
        std::printf("  %s: %zu cells\n",
                    testCaseInfo(tc).symbol, cells);
        if (cells > largest_cells) {
            largest_cells = cells;
            largest_case = tc;
        }
        topologies.emplace(tc, std::move(topo));
    }
    const CostCacheStats cache = CellCostCache::instance().stats();
    std::printf("\ncharacterization cache: %llu hits / %llu lookups "
                "(%.1f%%)\n",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.lookups()),
                100.0 * cache.hitRate());
    checker.check(cache.hitRate() >= 0.5,
                  "characterization cache absorbs >= 50% of cell "
                  "cost lookups");

    const EngineTopology &topo = topologies.at(largest_case);
    const WirelessLink link(transceiver(config.wireless));
    const std::vector<double> lambdas = lambdaSchedule();

    std::printf("\n== %zu-point lambda sweep on %s (%zu cells) "
                "==\n\n",
                lambdas.size(),
                testCaseInfo(largest_case).symbol,
                largest_cells);

    const std::vector<LambdaCut> cold =
        coldSweep(topo, link, lambdas);
    const std::vector<LambdaCut> warm =
        warmSweep(topo, link, lambdas);
    bool identical = cold.size() == warm.size();
    for (size_t i = 0; identical && i < cold.size(); ++i) {
        identical = samePlacement(cold[i].placement,
                                  warm[i].placement);
    }
    checker.check(identical,
                  "persistent-network cuts identical to fresh "
                  "networks at every lambda");

    const SweepTiming timing = timeSweeps(topo, link, lambdas, 30);
    std::printf("  cold: %8.3f ms/sweep\n",
                1e3 * timing.coldSec / 30);
    std::printf("  warm: %8.3f ms/sweep  (%.1fx)\n",
                1e3 * timing.warmSec / 30, timing.speedup());
    checker.check(timing.speedup() >= 3.0,
                  "persistent-network sweep >= 3x faster than a "
                  "rebuild per lambda");

    // Unchecked scale point: a fleet-design-sized synthetic graph.
    const EngineTopology big = syntheticTopology(160, 39, 99);
    const SweepTiming big_timing = timeSweeps(big, link, lambdas, 5);
    std::printf("\n== synthetic %zu-cell topology ==\n\n",
                big.graph.cellCount());
    std::printf("  cold: %8.3f ms/sweep\n",
                1e3 * big_timing.coldSec / 5);
    std::printf("  warm: %8.3f ms/sweep  (%.1fx)\n",
                1e3 * big_timing.warmSec / 5, big_timing.speedup());

    checker.metric("cells", static_cast<double>(largest_cells));
    checker.metric("lambda_points",
                   static_cast<double>(lambdas.size()));
    checker.metric("cold_ms_per_sweep", 1e3 * timing.coldSec / 30);
    checker.metric("warm_ms_per_sweep", 1e3 * timing.warmSec / 30);
    checker.metric("warm_speedup", timing.speedup());
    checker.metric("synthetic_warm_speedup", big_timing.speedup());
    checker.metric("cache_hit_rate", cache.hitRate());
    // Work unit: one warm lambda-sweep point (30 sweeps timed).
    checker.throughput(30 * lambdas.size(), timing.warmSec);

    std::printf("\n");
    return checker.finish("bench_generator_speed");
}
