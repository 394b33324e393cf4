/**
 * @file
 * Tests for the event-driven system simulator, including the
 * cross-validation invariants against the analytic models: energies
 * agree exactly; the simulated completion time is lower-bounded by
 * the analytic critical path and equals it absent radio contention.
 */

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "alloc_count.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/delay_model.hh"
#include "core/partitioner.hh"
#include "sim/event_queue.hh"
#include "sim/system_sim.hh"
#include "topology_fixtures.hh"

namespace
{

using namespace xpro;
using xpro::test::CellSpec;
using xpro::test::MiniTopology;
using xpro::test::chainTopology;

const WirelessLink link2(transceiver(WirelessModel::Model2));

/** Cap for EventQueue::runAll in tests that never loop. */
constexpr size_t kQueueCap = 1000000;

TEST(EventQueueTest, RunsInTimeOrder)
{
    EventQueue queue;
    std::vector<uint64_t> order;
    queue.schedule(Time::millis(3.0), 0, 3);
    queue.schedule(Time::millis(1.0), 0, 1);
    queue.schedule(Time::millis(2.0), 0, 2);
    queue.runAll(kQueueCap,
                 [&](uint32_t, uint64_t data) { order.push_back(data); });
    EXPECT_EQ(order, (std::vector<uint64_t>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(queue.now().ms(), 3.0);
}

TEST(EventQueueTest, SimultaneousEventsKeepFifoOrder)
{
    EventQueue queue;
    std::vector<uint64_t> order;
    for (uint64_t i = 0; i < 5; ++i)
        queue.schedule(Time::millis(1.0), 0, i);
    queue.runAll(kQueueCap,
                 [&](uint32_t, uint64_t data) { order.push_back(data); });
    EXPECT_EQ(order, (std::vector<uint64_t>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, HandlersMayScheduleMoreEvents)
{
    EventQueue queue;
    int fired = 0;
    queue.schedule(Time::millis(1.0), 0, 0);
    queue.runAll(kQueueCap, [&](uint32_t kind, uint64_t) {
        ++fired;
        if (kind == 0)
            queue.scheduleAfter(Time::millis(1.0), 1, 0);
    });
    EXPECT_EQ(fired, 2);
    EXPECT_DOUBLE_EQ(queue.now().ms(), 2.0);
}

TEST(EventQueueTest, PopsInTimeThenSequenceOrderAgainstSortedReference)
{
    // Times on a coarse grid, so most items tie on time with others;
    // handlers post more items (some at the current time, some under
    // a sequence set aside earlier) while the queue drains. The
    // reference is an ordered set of (time, sequence).
    Rng rng(1299);
    EventQueue queue;
    std::set<std::pair<double, uint64_t>> pending;
    uint64_t next_sequence = 0;
    const auto post = [&](Time at) {
        pending.insert({at.sec(), next_sequence});
        queue.schedule(at, 0, next_sequence++);
    };
    std::vector<uint64_t> reserved;
    for (int i = 0; i < 300; ++i)
        post(Time::millis(static_cast<double>(rng.below(20))));

    size_t popped = 0;
    queue.runAll(kQueueCap, [&](uint32_t, uint64_t data) {
        ASSERT_FALSE(pending.empty());
        EXPECT_EQ(data, pending.begin()->second) << "pop " << popped;
        EXPECT_EQ(queue.now().sec(), pending.begin()->first);
        pending.erase(pending.begin());
        ++popped;
        if (popped > 6000)
            return;
        for (uint64_t k = rng.below(4); k > 0; --k) {
            post(queue.now() +
                 Time::millis(static_cast<double>(rng.below(3))));
        }
        if (rng.below(5) == 0) {
            reserved.push_back(queue.reserveSequences(1));
            next_sequence = reserved.back() + 1;
        } else if (!reserved.empty()) {
            const uint64_t sequence = reserved.back();
            reserved.pop_back();
            const Time at = queue.now() +
                            Time::millis(static_cast<double>(rng.below(2)));
            pending.insert({at.sec(), sequence});
            queue.scheduleReserved(at, sequence, 0, sequence);
        }
    });
    EXPECT_TRUE(pending.empty());
    EXPECT_GT(popped, 6000u);
}

TEST(EventQueueTest, SchedulingIntoThePastPanics)
{
    EventQueue queue;
    queue.schedule(Time::millis(2.0), 0, 0);
    EXPECT_THROW(queue.runAll(kQueueCap,
                              [&](uint32_t, uint64_t) {
                                  queue.schedule(Time::millis(1.0), 0,
                                                 0);
                              }),
                 PanicError);
}

TEST(EventQueueTest, RunawayLoopIsCaught)
{
    EventQueue queue;
    queue.schedule(Time(), 0, 0);
    EXPECT_THROW(queue.runAll(100,
                              [&](uint32_t, uint64_t) {
                                  queue.scheduleAfter(Time::nanos(1.0),
                                                      0, 0);
                              }),
                 PanicError);
}

TEST(SystemSimTest, EnergiesMatchAnalyticModelExactly)
{
    Rng rng(1301);
    for (int trial = 0; trial < 20; ++trial) {
        const EngineTopology topo = [&] {
            MiniTopology mini(512 + 64 * rng.below(16));
            CellSpec spec;
            std::vector<size_t> features;
            for (size_t i = 0; i < 1 + rng.below(3); ++i) {
                spec.sensorNj = rng.uniform(10.0, 2000.0);
                const size_t f = mini.addCell(spec);
                mini.connect(DataflowGraph::sourceId, f);
                features.push_back(f);
            }
            const size_t fusion = mini.addCell(spec);
            for (size_t f : features)
                mini.connect(f, fusion);
            return mini.build(fusion);
        }();

        // Random placement.
        std::vector<bool> mask(topo.graph.nodeCount());
        mask[DataflowGraph::sourceId] = true;
        for (size_t v = 1; v < mask.size(); ++v)
            mask[v] = rng.chance(0.5);
        const Placement p = Placement::fromMask(topo, mask);

        const SimResult sim = simulateEvent(topo, p, link2);
        const SensorEnergyBreakdown model =
            sensorEventEnergy(topo, p, link2);
        EXPECT_NEAR(sim.sensorEnergy.compute.nj(), model.compute.nj(),
                    1e-9)
            << "trial " << trial;
        EXPECT_NEAR(sim.sensorEnergy.tx.nj(), model.tx.nj(), 1e-9)
            << "trial " << trial;
        EXPECT_NEAR(sim.sensorEnergy.rx.nj(), model.rx.nj(), 1e-9)
            << "trial " << trial;
    }
}

TEST(SystemSimTest, CompletionLowerBoundedByCriticalPath)
{
    Rng rng(1303);
    for (int trial = 0; trial < 20; ++trial) {
        const EngineTopology topo = chainTopology(
            rng.uniform(10, 2000), rng.uniform(10, 2000),
            rng.uniform(10, 2000), 256 << rng.below(4));
        std::vector<bool> mask(topo.graph.nodeCount());
        mask[DataflowGraph::sourceId] = true;
        for (size_t v = 1; v < mask.size(); ++v)
            mask[v] = rng.chance(0.5);
        const Placement p = Placement::fromMask(topo, mask);

        const Time simulated =
            simulateEvent(topo, p, link2).completion;
        const Time analytic = eventDelay(topo, p, link2).total();
        EXPECT_GE(simulated.us() + 1e-9, analytic.us())
            << "trial " << trial;
    }
}

TEST(SystemSimTest, ChainWithoutContentionMatchesAnalyticExactly)
{
    // A pure chain has at most one in-flight transfer: simulation
    // and critical path must agree to the nanosecond.
    const EngineTopology topo = chainTopology(100, 200, 50, 2048);
    for (const Placement &p :
         {Placement::allInSensor(topo),
          Placement::allInAggregator(topo),
          Placement::fromMask(topo, {true, true, false, false})}) {
        const Time simulated =
            simulateEvent(topo, p, link2).completion;
        const Time analytic = eventDelay(topo, p, link2).total();
        EXPECT_NEAR(simulated.us(), analytic.us(), 1e-9);
    }
}

TEST(SystemSimTest, RadioContentionDelaysParallelTransfers)
{
    // Two equal branches crossing simultaneously: the second
    // transfer must wait for the first, so the simulated completion
    // exceeds the analytic (contention-free) critical path.
    MiniTopology mini(512);
    CellSpec spec;
    spec.sensorUs = 10.0;
    spec.outputBits = 4096;
    const size_t a = mini.addCell(spec);
    const size_t b = mini.addCell(spec);
    CellSpec join;
    join.aggregatorUs = 1.0;
    const size_t fusion = mini.addCell(join);
    mini.connect(DataflowGraph::sourceId, a);
    mini.connect(DataflowGraph::sourceId, b);
    mini.connect(a, fusion);
    mini.connect(b, fusion);
    const EngineTopology topo = mini.build(fusion);

    const Placement p =
        Placement::fromMask(topo, {true, true, true, false});
    const SimResult sim = simulateEvent(topo, p, link2);
    const Time analytic = eventDelay(topo, p, link2).total();
    const Time payload = link2.transfer(4096).airTime;
    EXPECT_NEAR(sim.completion.us(),
                analytic.us() + payload.us(), 1e-9);
    EXPECT_EQ(sim.transfers, 2u);
}

TEST(SystemSimTest, ParallelAggregatorCellsMatchAnalyticExactly)
{
    // Two branches computed in parallel on the aggregator, fanning
    // into an aggregator-side fusion. A single node's back-end cells
    // run concurrently, as the analytic critical path assumes, so
    // the simulated completion equals eventDelay() exactly.
    MiniTopology mini(512);
    CellSpec slow;
    slow.aggregatorUs = 40.0;
    CellSpec fast;
    fast.aggregatorUs = 24.0;
    CellSpec join;
    join.aggregatorUs = 8.0;
    const size_t a = mini.addCell(slow);
    const size_t b = mini.addCell(fast);
    const size_t fusion = mini.addCell(join);
    mini.connect(DataflowGraph::sourceId, a);
    mini.connect(DataflowGraph::sourceId, b);
    mini.connect(a, fusion);
    mini.connect(b, fusion);
    const EngineTopology topo = mini.build(fusion);

    const Placement p = Placement::allInAggregator(topo);
    const SimResult sim = simulateEvent(topo, p, link2);
    // One broadcast of the raw segment feeds both branches.
    EXPECT_EQ(sim.transfers, 1u);
    EXPECT_EQ(sim.completion.sec(),
              eventDelay(topo, p, link2).total().sec());
}

TEST(SystemSimTest, TraceRecordsActivity)
{
    const EngineTopology topo = chainTopology(100, 200, 50, 1024);
    const SimResult sim = simulateEvent(
        topo, Placement::fromMask(topo, {true, true, false, false}),
        link2);
    EXPECT_FALSE(sim.trace.empty());
    bool saw_radio = false;
    for (const TraceEntry &entry : sim.trace)
        saw_radio |= entry.what.find("radio") != std::string::npos;
    EXPECT_TRUE(saw_radio);
}

TEST(SystemSimTest, StreamMeetsRealTimeAtPaperRates)
{
    const EngineTopology topo = chainTopology(100, 200, 50, 4096);
    const StreamResult stream = simulateStream(
        topo, Placement::allInAggregator(topo), link2, 4.0, 20);
    EXPECT_EQ(stream.events, 20u);
    EXPECT_EQ(stream.deadlineMisses, 0u);
    EXPECT_LT(stream.worstLatency.ms(), 250.0);
}

TEST(SystemSimTest, StreamDetectsOverload)
{
    // Absurdly slow sensor cells at a high event rate must miss
    // deadlines.
    const EngineTopology topo = [&] {
        MiniTopology mini(256);
        CellSpec slow;
        slow.sensorUs = 400000.0; // 0.4 s per cell
        const size_t f = mini.addCell(slow);
        const size_t z = mini.addCell(slow);
        mini.connect(DataflowGraph::sourceId, f);
        mini.connect(f, z);
        return mini.build(z);
    }();
    const StreamResult stream = simulateStream(
        topo, Placement::allInSensor(topo), link2, 10.0, 5);
    EXPECT_GT(stream.deadlineMisses, 0u);
}

TEST(SystemSimTest, EventLoopAllocationsIndependentOfEventCount)
{
    // The steady-state event loop is allocation-free: every heap
    // allocation a stream run performs belongs to setup (flat
    // dataflow state, queue reserve), whose count does not depend
    // on how many events flow through. Equal totals across event
    // counts pin exactly that — one extra allocation per event
    // would show up as a difference of 30 here.
    const EngineTopology topo = chainTopology(100, 200, 50, 4096);
    const Placement placement = Placement::trivialCut(topo);
    const auto measure = [&](size_t events) {
        xpro::testing::AllocScope scope;
        simulateStream(topo, placement, link2, 4.0, events);
        return scope.count();
    };
    measure(5); // warm process-wide caches (tap tables, logging)
    const size_t few = measure(10);
    const size_t many = measure(40);
    EXPECT_EQ(few, many)
        << "the per-event loop must not touch the heap";
}

} // namespace
