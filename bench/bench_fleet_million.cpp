/**
 * @file
 * Population-scale gate (DESIGN.md §16): can one process sustain
 * event traffic from a million simulated users?
 *
 * Three measurements:
 *
 *  A. Baseline: the detailed per-cell fleet simulator (one global
 *     event queue, one shared radio arbitrated FCFS over every
 *     node) at 10k nodes — the pre-population architecture, whose
 *     O(pending) arbitration scan goes quadratic at this size.
 *  B. The population path at the same 10k nodes: SoA node slabs, a
 *     sharded hierarchical time wheel, and per-cell radio
 *     arbitration through the tier hierarchy. Gated at >= 10x the
 *     baseline's events/sec, and byte-identical reports at every
 *     shard/worker combination.
 *  C. The population path at 1,000,000 nodes: sustained events/sec
 *     (the shared "events_per_sec" JSON key) and peak_rss_mb.
 *
 * Events are counted as completed node-events (sensed, uplinked,
 * delivered through the gateway) for both paths, so the comparison
 * is work-for-work, not loop-iterations-for-loop-iterations.
 */

#include <cstdio>
#include <cstdlib>

#include "bench_common.hh"
#include "core/placement.hh"
#include "core/topology.hh"
#include "fleet/fleet.hh"
#include "sim/radio_sched.hh"
#include "wireless/link.hh"

using namespace xpro;
using namespace xpro::bench;

namespace
{

/**
 * A miniature source -> feature -> svm -> fusion chain with the
 * same cost scale as the population path's synthetic archetypes, so
 * the baseline simulates comparable per-event work. trivialCut()
 * places the feature in the sensor and the classifiers in the
 * aggregator: every event crosses the shared radio once.
 */
EngineTopology
miniChain(double feature_nj, double sensor_us, double agg_us)
{
    EngineTopology topo;
    topo.graph = DataflowGraph(1024);
    topo.cells.resize(1); // source
    topo.segmentLength = 32;
    const auto add = [&](const char *name, ComponentKind kind) {
        DataflowNode node;
        node.name = name;
        node.outputBits = 32;
        node.costs.sensorEnergy = Energy::nanos(feature_nj);
        node.costs.aggregatorEnergy =
            Energy::nanos(feature_nj / 4.0);
        node.costs.sensorDelay = Time::micros(sensor_us);
        node.costs.aggregatorDelay = Time::micros(agg_us);
        const size_t id = topo.graph.addCell(node);
        CellInfo info;
        info.kind = kind;
        topo.cells.push_back(info);
        return id;
    };
    const size_t f = add("feature", ComponentKind::Var);
    const size_t s = add("svm", ComponentKind::Svm);
    const size_t z = add("fusion", ComponentKind::Fusion);
    topo.graph.addEdge(DataflowGraph::sourceId, f, 0);
    topo.graph.addEdge(f, s, 0);
    topo.graph.addEdge(s, z, 0);
    topo.fusionNode = z;
    topo.cells[z].kind = ComponentKind::Fusion;
    return topo;
}

/** Baseline fleet: @p nodes members cycling six chain variants at
 *  the synthetic archetypes' event rates. */
std::vector<FleetMember>
baselineMembers(const std::vector<EngineTopology> &chains,
                size_t nodes)
{
    const double rates[6] = {2.0, 1.0, 4.0, 2.0, 8.0, 1.0};
    std::vector<FleetMember> members;
    members.reserve(nodes);
    for (size_t n = 0; n < nodes; ++n) {
        FleetMember member;
        member.topology = chains[n % chains.size()];
        member.placement =
            Placement::trivialCut(member.topology);
        member.eventsPerSecond = rates[n % 6];
        members.push_back(std::move(member));
    }
    return members;
}

PopulationFleetConfig
populationConfig(uint64_t nodes, size_t shards, size_t workers)
{
    PopulationFleetConfig config;
    config.nodes = nodes;
    config.shards = shards;
    config.workers = workers;
    config.eventsPerNode = 2;
    return config;
}

} // namespace

int
main()
{
    ShapeChecker checker;
    // XPRO_BENCH_SMOKE=1: CI's JSON-shape check runs a reduced
    // fleet and skips the timing-sensitive speedup gates (the
    // shapes are too small for stable rates); the structural
    // checks — event accounting, slab size, byte-identity — hold
    // at any scale and stay on.
    const bool smoke = std::getenv("XPRO_BENCH_SMOKE") != nullptr;
    const size_t kBaselineNodes = smoke ? 1000 : 10000;
    const size_t kMillionNodes = smoke ? 20000 : 1000000;
    constexpr uint64_t kEventsPerNode = 2;

    std::vector<EngineTopology> chains;
    for (double nj : {90.0, 70.0, 50.0, 80.0, 40.0, 60.0})
        chains.push_back(miniChain(nj * 1000.0, 1500.0, 300.0));
    const WirelessLink link(transceiver(WirelessModel::Model2));
    const FcfsArbiter fcfs;

    // Warm both paths (page in code, grow arenas/slot vectors).
    simulateFleet(baselineMembers(chains, 64), link, fcfs,
                  kEventsPerNode);
    runPopulationFleet(populationConfig(1024, 4, 1));

    std::printf("== A: detailed per-cell path at %zu nodes "
                "(pre-population architecture) ==\n\n",
                kBaselineNodes);
    const std::vector<FleetMember> members =
        baselineMembers(chains, kBaselineNodes);
    SteadyTimer base_timer;
    const FleetSimResult base =
        simulateFleet(members, link, fcfs, kEventsPerNode);
    const double base_s = base_timer.seconds();
    const size_t base_events = kBaselineNodes * kEventsPerNode;
    const double base_rate =
        static_cast<double>(base_events) / base_s;
    std::printf("  %zu events in %.2f s -> %.0f events/s "
                "(%zu radio transfers)\n\n",
                base_events, base_s, base_rate, base.transfers);

    std::printf("== B: population path at the same %zu nodes "
                "==\n\n",
                kBaselineNodes);
    SteadyTimer pop_timer;
    const PopulationFleetResult pop10k =
        runPopulationFleet(populationConfig(kBaselineNodes, 8, 1));
    const double pop_s = pop_timer.seconds();
    const size_t pop_events = pop10k.report.totalEvents;
    const double pop_rate =
        static_cast<double>(pop_events) / pop_s;
    const double speedup = pop_rate / base_rate;
    std::printf("  %zu events in %.3f s -> %.0f events/s "
                "(%.1fx the detailed path)\n",
                pop_events, pop_s, pop_rate, speedup);
    std::printf("  %zu slab bytes/node, %zu effective shards\n\n",
                pop10k.bytesPerNode, pop10k.effectiveShards);

    checker.check(pop_events == base_events,
                  "population path completes the same event count "
                  "the baseline simulated");
    if (!smoke) {
        checker.check(speedup >= 10.0,
                      "population path >= 10x the detailed path's "
                      "events/sec at 10k nodes");
    }
    checker.check(NodeSlabs::bytesPerNode() <= 64,
                  "node state costs tens of bytes (<= 64)");

    // Byte-identity: the report must be a pure function of the
    // configuration — shards and workers change only wall-clock.
    const std::string reference =
        pop10k.report.serialize();
    bool identical = true;
    for (size_t shards : {1, 4, 16}) {
        for (size_t workers : {1, 4}) {
            const PopulationFleetResult run = runPopulationFleet(
                populationConfig(kBaselineNodes, shards, workers));
            identical &= run.report.serialize() == reference;
        }
    }
    checker.check(identical,
                  "report byte-identical across shards {1,4,16} x "
                  "workers {1,4}");

    std::printf("== C: population path at %zu nodes ==\n\n",
                kMillionNodes);
    PopulationFleetConfig million =
        populationConfig(kMillionNodes, 16, 0);
    // Provision the cloud tier for the fleet's ~3M events/s offered
    // load; the default quota models a smaller deployment and would
    // throttle most of the traffic.
    million.tiers.cloudEventsPerSec = 5000000;
    SteadyTimer million_timer;
    const PopulationFleetResult big = runPopulationFleet(million);
    const double million_s = million_timer.seconds();
    const size_t million_events = big.report.totalEvents;
    const double million_rate =
        static_cast<double>(million_events) / million_s;
    std::printf("  %zu events in %.2f s -> %.0f events/s "
                "(%llu wheel items, %zu shards)\n",
                million_events, million_s, million_rate,
                static_cast<unsigned long long>(
                    big.simulatedEvents),
                big.effectiveShards);
    std::printf("  peak rss %.0f MiB\n\n", peakRssMb());

    const uint64_t offered = kMillionNodes * kEventsPerNode;
    checker.check(million_events >=
                      static_cast<size_t>(offered * 95 / 100),
                  "1M-node run delivers >= 95% of offered events "
                  "(cloud tier provisioned)");
    if (!smoke) {
        checker.check(million_rate >= base_rate * 10.0,
                      "1M-node sustained rate still >= 10x the "
                      "10k-node detailed path");
    }
    checker.check(peakRssMb() < 1024.0,
                  "1M nodes fit in < 1 GiB peak RSS");

    checker.metric("baseline_events_per_sec", base_rate);
    checker.metric("speedup_10k", speedup);
    checker.metric("bytes_per_node",
                   static_cast<double>(pop10k.bytesPerNode));
    checker.metric("million_events",
                   static_cast<double>(million_events));
    checker.throughput(million_events, million_s);
    return checker.finish("bench_fleet_million");
}
