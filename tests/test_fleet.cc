/**
 * @file
 * Tests for the fleet subsystem: worker pool, radio arbitration,
 * aggregator admission control and the many-node event simulation.
 * The two headline invariants of ISSUE requirements live here: a
 * two-node fleet sharing the radio completes strictly later than
 * the single-node critical path, and a full fleet run produces a
 * byte-identical report for any worker-pool size.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "alloc_count.hh"
#include "common/argparse.hh"
#include "common/logging.hh"
#include "fleet/fleet.hh"
#include "obs/stats_registry.hh"
#include "sim/system_sim.hh"
#include "topology_fixtures.hh"

namespace
{

using namespace xpro;
using xpro::test::CellSpec;
using xpro::test::MiniTopology;
using xpro::test::chainTopology;

const WirelessLink link2(transceiver(WirelessModel::Model2));

// --- WorkerPool ---------------------------------------------------

TEST(WorkerPoolTest, MapKeepsResultsIndexed)
{
    for (size_t workers : {1u, 2u, 3u, 8u}) {
        WorkerPool pool(workers);
        const std::vector<size_t> out =
            pool.map<size_t>(17, [](size_t i) { return i * i; });
        ASSERT_EQ(out.size(), 17u);
        for (size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], i * i) << "workers=" << workers;
    }
}

TEST(WorkerPoolTest, RunsEveryTaskExactlyOnce)
{
    WorkerPool pool(4);
    std::vector<std::atomic<int>> hits(100);
    pool.run(hits.size(), [&](size_t i) { ++hits[i]; });
    for (const auto &hit : hits)
        EXPECT_EQ(hit.load(), 1);
}

TEST(WorkerPoolTest, PropagatesTheFirstException)
{
    WorkerPool pool(3);
    EXPECT_THROW(pool.run(8,
                          [](size_t i) {
                              if (i == 5)
                                  throw std::runtime_error("boom");
                          }),
                 std::runtime_error);
}

TEST(WorkerPoolTest, AccountsBusyTime)
{
    WorkerPool pool(2);
    pool.run(4, [](size_t) {
        volatile double sink = 0.0;
        for (int i = 0; i < 10000; ++i)
            sink = sink + static_cast<double>(i);
    });
    EXPECT_GE(pool.lastWork(), pool.lastMakespan());
    EXPECT_GT(pool.lastMakespan(), Time());
}

TEST(WorkerPoolTest, ZeroWorkersClampToOne)
{
    WorkerPool pool(0);
    const std::vector<int> out =
        pool.map<int>(3, [](size_t i) { return int(i) + 1; });
    EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

// --- Radio arbitration --------------------------------------------

TEST(RadioSchedTest, FcfsGrantsLowestSequenceImmediately)
{
    const FcfsArbiter arbiter;
    EXPECT_EQ(arbiter.name(), "fcfs");
    std::vector<RadioRequest> pending;
    pending.push_back({2, 7, Time::millis(1.0), Time::millis(2.0)});
    pending.push_back({0, 3, Time::millis(1.5), Time::millis(2.0)});
    Time start;
    const size_t chosen =
        arbiter.grant(pending, Time::millis(4.0), &start);
    EXPECT_EQ(chosen, 1u);
    EXPECT_DOUBLE_EQ(start.ms(), 4.0);
}

TEST(RadioSchedTest, FcfsNeverStartsBeforeReady)
{
    const FcfsArbiter arbiter;
    std::vector<RadioRequest> pending;
    pending.push_back({0, 0, Time::millis(9.0), Time::millis(1.0)});
    Time start;
    arbiter.grant(pending, Time::millis(2.0), &start);
    EXPECT_DOUBLE_EQ(start.ms(), 9.0);
}

TEST(RadioSchedTest, TdmaSlotMath)
{
    const TdmaArbiter arbiter(3, Time::millis(2.0));
    EXPECT_EQ(arbiter.name(), "tdma");
    EXPECT_DOUBLE_EQ(arbiter.frame().ms(), 6.0);
    // Node 0 owns [0, 2), node 1 [2, 4), node 2 [4, 6), repeating.
    EXPECT_DOUBLE_EQ(arbiter.nextSlotStart(0, Time()).ms(), 0.0);
    EXPECT_DOUBLE_EQ(arbiter.nextSlotStart(1, Time()).ms(), 2.0);
    EXPECT_DOUBLE_EQ(arbiter.nextSlotStart(2, Time()).ms(), 4.0);
    // Asking just past a slot start rolls to the next frame.
    EXPECT_DOUBLE_EQ(
        arbiter.nextSlotStart(1, Time::millis(2.5)).ms(), 8.0);
    // Asking exactly at a slot start returns it.
    EXPECT_DOUBLE_EQ(
        arbiter.nextSlotStart(1, Time::millis(8.0)).ms(), 8.0);
    // Mid-slot times count as the owner's air time.
    EXPECT_TRUE(arbiter.inOwnSlot(1, Time::millis(2.5)));
    EXPECT_FALSE(arbiter.inOwnSlot(0, Time::millis(2.5)));
    EXPECT_TRUE(arbiter.inOwnSlot(0, Time::millis(6.5)));
}

TEST(RadioSchedTest, TdmaGrantsTheSlotOwnerFirst)
{
    const TdmaArbiter arbiter(2, Time::millis(2.0));
    std::vector<RadioRequest> pending;
    pending.push_back({0, 0, Time(), Time::millis(1.0)});
    pending.push_back({1, 1, Time(), Time::millis(1.0)});
    // Channel frees in node 1's slot: node 1 goes first even though
    // node 0 asked earlier.
    Time start;
    const size_t chosen =
        arbiter.grant(pending, Time::millis(2.5), &start);
    EXPECT_EQ(chosen, 1u);
    EXPECT_DOUBLE_EQ(start.ms(), 2.5);
}

// --- Admission ----------------------------------------------------

/** Chain with heavy sensor costs so the free cut offloads. */
EngineTopology
offloadHappyTopology()
{
    return chainTopology(4000.0, 9000.0, 2500.0);
}

TEST(AdmissionTest, WithinBudgetKeepsTheFreeCut)
{
    const EngineTopology topology = offloadHappyTopology();
    const Placement cut =
        XProGenerator(topology, link2).generate().placement;
    ASSERT_LT(cut.sensorCellCount(), topology.graph.cellCount());

    std::vector<AdmissionCandidate> candidates;
    candidates.push_back({&topology, &cut, 4.0});
    const AdmissionResult result =
        admitFleet(candidates, link2, AdmissionConfig{});
    ASSERT_EQ(result.nodes.size(), 1u);
    EXPECT_EQ(result.nodes[0].outcome, AdmissionOutcome::Offloaded);
    EXPECT_EQ(result.nodes[0].placement.sensorCellCount(),
              cut.sensorCellCount());
    EXPECT_GT(result.cpuUtilization, 0.0);
    EXPECT_GT(result.power, Power());
}

TEST(AdmissionTest, TightCpuBudgetRepartitionsTowardSensor)
{
    const EngineTopology topology = offloadHappyTopology();
    const Placement cut =
        XProGenerator(topology, link2).generate().placement;
    const double free_share = aggregatorCpuShare(topology, cut, 4.0);
    ASSERT_GT(free_share, 0.0);

    AdmissionConfig config;
    config.maxCpuUtilization = free_share / 2.0;
    std::vector<AdmissionCandidate> candidates;
    candidates.push_back({&topology, &cut, 4.0});
    const AdmissionResult result =
        admitFleet(candidates, link2, config);
    ASSERT_EQ(result.nodes.size(), 1u);
    EXPECT_NE(result.nodes[0].outcome, AdmissionOutcome::Offloaded);
    // Whatever the outcome, the admitted demand respects the cap.
    EXPECT_LE(result.cpuUtilization,
              config.maxCpuUtilization + 1e-12);
    EXPECT_GE(result.nodes[0].placement.sensorCellCount(),
              cut.sensorCellCount());
}

TEST(AdmissionTest, SecondNodeSeesTheFirstOnesLoad)
{
    const EngineTopology topology = offloadHappyTopology();
    const Placement cut =
        XProGenerator(topology, link2).generate().placement;
    const double free_share = aggregatorCpuShare(topology, cut, 4.0);

    // Budget fits exactly one free cut: the second identical node
    // must be pushed back toward its sensor.
    AdmissionConfig config;
    config.maxCpuUtilization = free_share * 1.5;
    std::vector<AdmissionCandidate> candidates;
    candidates.push_back({&topology, &cut, 4.0});
    candidates.push_back({&topology, &cut, 4.0});
    const AdmissionResult result =
        admitFleet(candidates, link2, config);
    ASSERT_EQ(result.nodes.size(), 2u);
    EXPECT_EQ(result.nodes[0].outcome, AdmissionOutcome::Offloaded);
    EXPECT_NE(result.nodes[1].outcome, AdmissionOutcome::Offloaded);
    EXPECT_LE(result.cpuUtilization,
              config.maxCpuUtilization + 1e-12);
}

TEST(AdmissionTest, CpuShareIsSoftwareDelayTimesRate)
{
    const EngineTopology topology = chainTopology(100.0, 100.0, 100.0);
    const Placement all_agg = Placement::allInAggregator(topology);
    // Three cells at 5 us each, 4 events/s.
    EXPECT_NEAR(aggregatorCpuShare(topology, all_agg, 4.0),
                3 * 5e-6 * 4.0, 1e-12);
    const Placement all_sensor = Placement::allInSensor(topology);
    EXPECT_DOUBLE_EQ(aggregatorCpuShare(topology, all_sensor, 4.0),
                     0.0);
}

// --- Fleet event simulation ---------------------------------------

/** A cut chain: feature in-sensor, classifier+fusion offloaded. */
FleetMember
cutChainMember(const EngineTopology &topology, double rate)
{
    FleetMember member;
    member.topology = topology;
    member.placement = Placement::trivialCut(topology);
    member.eventsPerSecond = rate;
    return member;
}

TEST(FleetSimTest, SingleMemberMatchesSingleNodeSimulator)
{
    const EngineTopology topology =
        chainTopology(100.0, 200.0, 300.0);
    std::vector<FleetMember> members;
    members.push_back(cutChainMember(topology, 4.0));
    const SimResult single =
        simulateEvent(topology, members[0].placement, link2);

    const FcfsArbiter fcfs;
    const FleetSimResult fleet =
        simulateFleet(members, link2, fcfs, 3);
    ASSERT_EQ(fleet.members.size(), 1u);
    EXPECT_EQ(fleet.members[0].events, 3u);
    // Alone on the channel, every event sees the single-node
    // latency; deadlines are easily met at 4 events/s.
    EXPECT_DOUBLE_EQ(fleet.members[0].firstCompletion.ms(),
                     single.completion.ms());
    EXPECT_NEAR(fleet.members[0].worstLatency.ms(),
                single.completion.ms(), 1e-9);
    EXPECT_EQ(fleet.members[0].deadlineMisses, 0u);
    EXPECT_EQ(fleet.transfers, 3 * single.transfers);

    // The fault path agrees too: the same ARQ draws, outage
    // detector, local fallback and recovery probes, counter for
    // counter, over every preset and seed plus a scripted outage.
    std::vector<FaultProfile> profiles;
    for (const char *preset : {"mild", "bursty", "harsh"}) {
        for (uint64_t seed = 1; seed <= 5; ++seed) {
            FaultProfile profile = FaultProfile::preset(preset);
            profile.seed = seed;
            profiles.push_back(profile);
        }
    }
    FaultProfile outage = FaultProfile::preset("bursty");
    outage.outages.push_back(
        {Time::millis(100.0), Time::millis(3000.0)});
    profiles.push_back(outage);

    const size_t events = 30;
    for (size_t i = 0; i < profiles.size(); ++i) {
        const FaultProfile &faults = profiles[i];
        const StreamResult stream =
            simulateStream(topology, members[0].placement, link2,
                           members[0].eventsPerSecond, events, faults);
        const FleetSimResult one =
            simulateFleet(members, link2, fcfs, events, faults);
        ASSERT_EQ(one.members.size(), 1u);
        const MemberSimResult &member = one.members[0];
        EXPECT_EQ(one.robustness.serialize(),
                  stream.robustness.serialize())
            << "profile " << i;
        EXPECT_EQ(member.meanLatency.sec(), stream.meanLatency.sec())
            << "profile " << i;
        EXPECT_EQ(member.worstLatency.sec(),
                  stream.worstLatency.sec())
            << "profile " << i;
        EXPECT_EQ(member.deadlineMisses, stream.deadlineMisses)
            << "profile " << i;
        EXPECT_EQ(member.degradedEvents, stream.degradedEvents)
            << "profile " << i;
    }
    // The outage window must actually exercise the fallback path.
    EXPECT_GT(simulateStream(topology, members[0].placement, link2,
                             members[0].eventsPerSecond, events,
                             outage)
                  .degradedEvents,
              0u);
}

TEST(FleetSimTest, TwoNodesContendOnTheSharedRadio)
{
    const EngineTopology topology =
        chainTopology(100.0, 200.0, 300.0);
    const SimResult single = simulateEvent(
        topology, Placement::trivialCut(topology), link2);
    ASSERT_GT(single.transfers, 0u)
        << "fixture must exercise the radio";

    std::vector<FleetMember> members;
    members.push_back(cutChainMember(topology, 4.0));
    members.push_back(cutChainMember(topology, 4.0));
    const FcfsArbiter fcfs;
    const FleetSimResult fleet =
        simulateFleet(members, link2, fcfs, 1);

    // Both nodes inject at t=0 and want the channel at the same
    // instant. One of them must wait: the fleet's completion is
    // STRICTLY above the single-node critical path.
    EXPECT_DOUBLE_EQ(fleet.members[0].firstCompletion.ms(),
                     single.completion.ms());
    EXPECT_GT(fleet.members[1].firstCompletion, single.completion);
    EXPECT_GT(fleet.span, single.completion);
    EXPECT_DOUBLE_EQ(fleet.radioBusy.ms(),
                     2 * single.radioBusy.ms());
}

TEST(FleetSimTest, EventLoopAllocationsIndependentOfEventCount)
{
    // Fault-free fleet runs only allocate during setup (flat
    // dataflow state, group splits, queue reserve); the shared
    // radio/CPU event loop itself is allocation-free. Setup cost is
    // independent of the event count, so the totals must be EQUAL —
    // any per-event heap traffic shows up as a difference of 8
    // events times two members here.
    const EngineTopology topology =
        chainTopology(100.0, 200.0, 300.0);
    const FcfsArbiter fcfs;
    const auto measure = [&](size_t eventsPerNode) {
        std::vector<FleetMember> members;
        members.push_back(cutChainMember(topology, 4.0));
        members.push_back(cutChainMember(topology, 4.0));
        xpro::testing::AllocScope scope;
        simulateFleet(members, link2, fcfs, eventsPerNode);
        return scope.count();
    };
    measure(2); // warm process-wide caches
    const size_t few = measure(4);
    const size_t many = measure(12);
    EXPECT_EQ(few, many)
        << "the shared event loop must not touch the heap";
}

TEST(FleetSimTest, EventLoopBytesIndependentOfEventCount)
{
    // Simulator state follows the events in flight, not the events
    // offered: the queue holds each member's next injection plus the
    // work of its in-flight events, and retired instance slots are
    // reused. A run of 2000 events per member therefore requests
    // exactly as many heap bytes as a run of 10.
    const EngineTopology topology =
        chainTopology(100.0, 200.0, 300.0);
    const FcfsArbiter fcfs;
    const auto measure = [&](size_t eventsPerNode) {
        std::vector<FleetMember> members;
        members.push_back(cutChainMember(topology, 4.0));
        members.push_back(cutChainMember(topology, 4.0));
        xpro::testing::AllocScope scope;
        simulateFleet(members, link2, fcfs, eventsPerNode);
        return scope.bytes();
    };
    measure(2); // warm process-wide caches
    const size_t few = measure(10);
    const size_t many = measure(2000);
    EXPECT_EQ(few, many)
        << "simulator memory must not grow with the event count";
}

TEST(FleetSimTest, QueueDepthFollowsInFlightEvents)
{
    if (!statsCompiledIn())
        GTEST_SKIP() << "stats compiled out";
    // Injections are posted one at a time per member, so the deepest
    // the queue gets depends on how much work overlaps, never on how
    // many events are offered.
    const EngineTopology topology =
        chainTopology(100.0, 200.0, 300.0);
    const FcfsArbiter fcfs;
    const auto depth = [&](size_t eventsPerNode) {
        std::vector<FleetMember> members;
        members.push_back(cutChainMember(topology, 4.0));
        members.push_back(cutChainMember(topology, 4.0));
        StatsRegistry::instance().reset();
        simulateFleet(members, link2, fcfs, eventsPerNode);
        return StatsRegistry::instance().snapshot().value(
            "sim.queue_depth_highwater");
    };
    const uint64_t few = depth(10);
    EXPECT_GT(few, 0u);
    EXPECT_EQ(few, depth(2000));
}

TEST(FleetSimTest, AggregatorCellsSerializeOnOneCpu)
{
    // All-in-aggregator members: every cell is software on the one
    // shared CPU, so total busy time is exactly two events' worth.
    const EngineTopology topology =
        chainTopology(100.0, 200.0, 300.0);
    std::vector<FleetMember> members;
    for (int i = 0; i < 2; ++i) {
        FleetMember member;
        member.topology = topology;
        member.placement = Placement::allInAggregator(topology);
        member.eventsPerSecond = 4.0;
        members.push_back(member);
    }
    const FcfsArbiter fcfs;
    const FleetSimResult fleet =
        simulateFleet(members, link2, fcfs, 1);
    // 3 cells x 5 us per member per event.
    EXPECT_NEAR(fleet.aggregatorBusy.ms(), 2 * 3 * 0.005, 1e-9);
}

TEST(FleetSimTest, TdmaDelaysTransfersToOwnedSlots)
{
    const EngineTopology topology =
        chainTopology(100.0, 200.0, 300.0);
    std::vector<FleetMember> members;
    members.push_back(cutChainMember(topology, 4.0));
    members.push_back(cutChainMember(topology, 4.0));

    const FcfsArbiter fcfs;
    const FleetSimResult free_for_all =
        simulateFleet(members, link2, fcfs, 1);

    // Slots far longer than any payload: node 1's transfer must
    // wait for its own slot even though the channel is idle.
    const Time slot = Time::millis(5.0);
    const TdmaArbiter tdma(members.size(), slot);
    const FleetSimResult slotted =
        simulateFleet(members, link2, tdma, 1);
    EXPECT_GE(slotted.members[1].firstCompletion,
              free_for_all.members[1].firstCompletion);
    EXPECT_GE(slotted.members[1].firstCompletion, slot);
    // Same payloads move either way.
    EXPECT_DOUBLE_EQ(slotted.radioBusy.ms(),
                     free_for_all.radioBusy.ms());
    EXPECT_EQ(slotted.transfers, free_for_all.transfers);
}

// --- Fleet runs ---------------------------------------------------

TEST(FleetTest, HeterogeneousFleetCyclesCasesAndProcesses)
{
    const std::vector<FleetNodeSpec> specs = heterogeneousFleet(8);
    ASSERT_EQ(specs.size(), 8u);
    EXPECT_EQ(specs[0].testCase, TestCase::C1);
    EXPECT_EQ(specs[6].testCase, TestCase::C1);
    EXPECT_NE(specs[0].process, specs[1].process);
    for (size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(specs[i].seed, 2017u + i);
}

/** Small-but-real fleet config that trains quickly. */
FleetConfig
tinyFleetConfig(size_t workers)
{
    FleetConfig config;
    config.nodes = heterogeneousFleet(3);
    for (FleetNodeSpec &node : config.nodes) {
        node.subspaceCandidates = 6;
        node.maxTrainingSegments = 60;
    }
    config.workers = workers;
    config.eventsPerNode = 3;
    return config;
}

TEST(FleetTest, ReportIsByteIdenticalForAnyWorkerCount)
{
    const FleetResult one = runFleet(tinyFleetConfig(1));
    const FleetResult two = runFleet(tinyFleetConfig(2));
    const FleetResult four = runFleet(tinyFleetConfig(4));

    const std::string bytes = one.report.serialize();
    EXPECT_EQ(bytes, two.report.serialize());
    EXPECT_EQ(bytes, four.report.serialize());

    // The admitted placements match cell by cell, not just in the
    // serialized summary.
    for (size_t n = 0; n < one.nodes.size(); ++n) {
        const Placement &a = one.nodes[n].admission.placement;
        const Placement &b = four.nodes[n].admission.placement;
        ASSERT_EQ(a.size(), b.size());
        for (size_t u = 0; u < a.size(); ++u)
            EXPECT_EQ(a.inSensor(u), b.inSensor(u));
    }
}

TEST(FleetTest, SixteenNodeParallelSweepReportIsByteIdentical)
{
    // A 16-node mixed-technology fleet (heterogeneousFleet cycles
    // the process nodes) designed sequentially must serialize byte
    // for byte like the fully parallel path: design workers fanned
    // out over nodes AND sweep workers inside every generator, with
    // the characterization cache shared across all of them.
    FleetConfig sequential;
    sequential.nodes = heterogeneousFleet(16);
    for (FleetNodeSpec &node : sequential.nodes) {
        node.subspaceCandidates = 4;
        node.maxTrainingSegments = 40;
    }
    sequential.eventsPerNode = 2;
    sequential.workers = 1;
    sequential.sweepWorkers = 1;

    FleetConfig parallel = sequential;
    parallel.workers = 4;
    parallel.sweepWorkers = 3;

    const FleetResult a = runFleet(sequential);
    const FleetResult b = runFleet(parallel);
    ASSERT_EQ(a.nodes.size(), 16u);
    EXPECT_EQ(a.report.serialize(), b.report.serialize());
    for (size_t n = 0; n < a.nodes.size(); ++n) {
        const Placement &pa = a.nodes[n].admission.placement;
        const Placement &pb = b.nodes[n].admission.placement;
        ASSERT_EQ(pa.size(), pb.size()) << "node " << n;
        for (size_t u = 0; u < pa.size(); ++u)
            EXPECT_EQ(pa.inSensor(u), pb.inSensor(u))
                << "node " << n << " cell " << u;
    }
}

TEST(FleetTest, FleetSeedThreadsIntoEveryNodeSpec)
{
    const std::vector<FleetNodeSpec> defaulted =
        heterogeneousFleet(4);
    const std::vector<FleetNodeSpec> seeded =
        heterogeneousFleet(4, 31337);
    for (size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(defaulted[i].seed, 2017u + i);
        EXPECT_EQ(seeded[i].seed, 31337u + i);
        // Only the RNG seeds differ; the case/process cycling is
        // part of the fleet's shape, not of the randomness.
        EXPECT_EQ(defaulted[i].testCase, seeded[i].testCase);
        EXPECT_EQ(defaulted[i].process, seeded[i].process);
    }
}

// --- CLI argument validation --------------------------------------

TEST(ArgparseTest, SeedArgAcceptsZeroButNotNegatives)
{
    EXPECT_EQ(parseSeedArg("0", "--seed"), 0u);
    EXPECT_EQ(parseSeedArg("2017", "--seed"), 2017u);
    EXPECT_THROW(parseSeedArg("-1", "--seed"), FatalError);
    EXPECT_THROW(parseSeedArg("seed", "--seed"), FatalError);
    // 2^63 - 1 is the largest seed; past it strtoll saturates.
    EXPECT_EQ(parseSeedArg("9223372036854775807", "--seed"),
              9223372036854775807u);
    EXPECT_THROW(parseSeedArg("9223372036854775808", "--seed"),
                 FatalError);
    EXPECT_THROW(parseSeedArg("18446744073709551616", "--seed"),
                 FatalError);
    EXPECT_THROW(parseCountArg("99999999999999999999", "--ml-workers"),
                 FatalError);
}

TEST(ArgparseTest, ProbabilityArgBoundsTheRange)
{
    EXPECT_DOUBLE_EQ(parseProbabilityArg("0", "--ber"), 0.0);
    EXPECT_DOUBLE_EQ(parseProbabilityArg("1e-4", "--ber"), 1e-4);
    EXPECT_THROW(parseProbabilityArg("1", "--ber"), FatalError);
    EXPECT_THROW(parseProbabilityArg("-0.1", "--ber"), FatalError);
    EXPECT_THROW(parseProbabilityArg("nope", "--ber"), FatalError);
}

TEST(FleetTest, RunFleetPopulatesTheReport)
{
    FleetConfig config = tinyFleetConfig(2);
    config.policy = RadioPolicy::Tdma;
    const FleetResult result = runFleet(config);

    EXPECT_EQ(result.report.policy, "tdma");
    EXPECT_EQ(result.report.nodeCount, 3u);
    EXPECT_EQ(result.report.totalEvents, 9u);
    ASSERT_EQ(result.report.rows.size(), 3u);
    EXPECT_GT(result.report.spanMs, 0.0);
    EXPECT_GT(result.report.radioOccupancy, 0.0);
    EXPECT_GT(result.report.aggregatorLifetimeHours, 0.0);
    for (const FleetNodeReportRow &row : result.report.rows) {
        EXPECT_GT(row.accuracy, 0.5);
        EXPECT_GT(row.sensorLifetimeHours, 0.0);
        EXPECT_GT(row.totalCells, 0u);
    }
    EXPECT_GT(result.designWork, Time());
    EXPECT_GE(result.designWork, result.designMakespan);
}

TEST(ArgparseTest, BoundedArgRejectsOverflowAndOutOfRange)
{
    EXPECT_EQ(parseBoundedArg("100", "--nodes", 1000), 100u);
    EXPECT_EQ(parseBoundedArg("1000", "--nodes", 1000), 1000u);
    EXPECT_THROW(parseBoundedArg("1001", "--nodes", 1000),
                 FatalError);
    for (const char *bad : {"0", "-3", "-5", "abc", "4x", ""})
        EXPECT_THROW(parseBoundedArg(bad, "--nodes", 1000), FatalError)
            << "'" << bad << "'";
    // Larger than long long: strtoll saturates with ERANGE; must be
    // fatal, not silently clamped.
    EXPECT_THROW(
        parseBoundedArg("99999999999999999999999", "--nodes", 1000),
        FatalError);
    EXPECT_THROW(parseBoundedArg("9223372036854775807", "--nodes",
                                 1000),
                 FatalError);
}

TEST(PopulationFleetTest, NodeStateCostsTensOfBytes)
{
    EXPECT_LE(NodeSlabs::bytesPerNode(), 64u);
}

TEST(PopulationFleetTest, ReportCoversTheWholePopulation)
{
    PopulationFleetConfig config;
    config.nodes = 2048;
    config.shards = 4;
    config.eventsPerNode = 3;
    const PopulationFleetResult result = runPopulationFleet(config);

    EXPECT_EQ(result.report.nodeCount, 2048u);
    EXPECT_EQ(result.report.policy, "tiered-fcfs");
    EXPECT_TRUE(result.report.tiers.enabled);
    EXPECT_GT(result.report.tiers.phones, 0u);
    EXPECT_GT(result.report.tiers.gateways, 0u);
    EXPECT_GT(result.report.tiers.windows, 0u);
    EXPECT_GT(result.report.spanMs, 0.0);
    EXPECT_LE(result.effectiveShards, 4u);
    // Every offered event is accounted for: delivered or locally
    // fallen back, never silently dropped.
    EXPECT_EQ(result.report.totalEvents +
                  result.report.tiers.localFallbacks,
              2048u * 3u);
    ASSERT_FALSE(result.report.rows.empty());
    for (const FleetNodeReportRow &row : result.report.rows) {
        EXPECT_EQ(row.admission, "tiered");
        EXPECT_GT(row.accuracy, 0.5);
    }
    EXPECT_GE(result.simulatedEvents, 2048u * 3u);
}

TEST(PopulationFleetTest, ReportByteIdenticalAcrossShardsAndWorkers)
{
    // The 10k-node determinism gate: FleetReport must be a pure
    // function of the configuration, with shard and worker counts
    // changing only wall-clock time (DESIGN.md §16).
    const auto runAt = [](size_t shards, size_t workers) {
        PopulationFleetConfig config;
        config.nodes = 10000;
        config.shards = shards;
        config.workers = workers;
        config.eventsPerNode = 2;
        return runPopulationFleet(config).report.serialize();
    };

    const std::string reference = runAt(1, 1);
    EXPECT_FALSE(reference.empty());
    for (size_t shards : {4, 16}) {
        for (size_t workers : {1, 2, 4}) {
            EXPECT_EQ(runAt(shards, workers), reference)
                << "shards=" << shards << " workers=" << workers;
        }
    }
}

TEST(PopulationFleetTest, CloudQuotaThrottlesUnderProvisionedTier)
{
    // Starve the cloud tier: throttled uplinks must defer and
    // eventually fall back locally rather than disappear.
    PopulationFleetConfig config;
    config.nodes = 4096;
    config.shards = 4;
    config.eventsPerNode = 2;
    config.tiers.cloudEventsPerSec = 100;
    const PopulationFleetResult result = runPopulationFleet(config);

    EXPECT_GT(result.report.tiers.cloudThrottled, 0u);
    EXPECT_GT(result.report.tiers.localFallbacks, 0u);
    EXPECT_EQ(result.report.totalEvents +
                  result.report.tiers.localFallbacks,
              4096u * 2u);
}

TEST(PopulationFleetTest, OutageStreakSaturatesAtSlabWidth)
{
    // A node dark for more events than uint16_t can count must pin
    // its streak at UINT16_MAX, not wrap back to a healthy-looking
    // small value. One dead-battery node misses 70000 events.
    PopulationFleetConfig config;
    config.nodes = 1;
    config.eventsPerNode = 70000;
    PopulationArchetype dead;
    dead.symbol = "X1";
    dead.process = "90nm";
    dead.batteryNj = 0; // exhausted from the first event
    dead.periodUs = 10;
    config.archetypes = {dead};
    config.chaos.enabled = true; // chaos report, zero scheduled
                                 // episodes
    const PopulationFleetResult result = runPopulationFleet(config);

    EXPECT_TRUE(result.report.chaos.enabled);
    EXPECT_EQ(result.report.chaos.maxOutageStreak, 65535u);
    EXPECT_EQ(result.report.chaos.gatewayCrashes, 0u);
    EXPECT_EQ(result.report.totalEvents, 0u);
    // A flat battery transmits 0 of N: every event is accounted as
    // duty-suppressed, none vanishes.
    EXPECT_EQ(result.report.tiers.dutySuppressed, 70000u);
    EXPECT_EQ(result.report.tiers.localFallbacks, 0u);
}

TEST(PopulationFleetTest, WheelWraparoundSurvivesLongChaosBackoff)
{
    // Chaos retry backoff past the timing wheel's 2^32-tick top
    // horizon: the first defer lands in the top level, the second in
    // the far-overflow vector. Every event must still resolve (here:
    // fall back after maxDefers) with the shard-invariant report.
    const auto runAt = [](size_t shards) {
        PopulationFleetConfig config;
        config.nodes = 64;
        config.shards = shards;
        config.eventsPerNode = 4;
        // Zero gateway airtime: every phone->gateway hop defers
        // until maxDefers runs out, with no per-window clamp.
        config.tiers.gatewayAirtimeShare = 0.0;
        config.chaos.enabled = true;
        config.chaos.retryBackoffBaseUs = 2200000000ULL; // > 2^31
        return runPopulationFleet(config).report;
    };
    const FleetReport report = runAt(1);

    EXPECT_EQ(report.totalEvents, 0u); // nothing reaches the cloud
    EXPECT_EQ(report.tiers.localFallbacks, 64u * 4u);
    EXPECT_GT(report.tiers.deferredUplinks, 0u);
    // Two deferrals per event before the fallback, each a chaos
    // retry with exponential backoff.
    EXPECT_EQ(report.chaos.retries, 64u * 4u * 2u);
    EXPECT_EQ(runAt(4).serialize(), report.serialize());
}

} // namespace
