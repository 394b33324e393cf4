/**
 * @file
 * Tests for the fleet-wide stats registry (obs/): registration
 * semantics under concurrency, counter/gauge/histogram mechanics,
 * slab merge order-invariance, JSON/table export shape, and the
 * tentpole contract — the stable section of a population-fleet
 * snapshot is byte-identical at any shards x workers combination.
 * Runs under the `obs` label (TSan-checked by check_tsan_fleet.sh).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "fleet/fleet.hh"
#include "json_check.hh"
#include "obs/stats_export.hh"
#include "obs/stats_registry.hh"

namespace
{

using namespace xpro;

/** Unique-per-test stat names: the registry is a process singleton
 *  and registrations survive reset(), so each test namespaces its
 *  stats to stay independent of execution order. */
std::string
statName(const char *test, const char *stat)
{
    return std::string("test.") + test + "." + stat;
}

TEST(StatsRegistryTest, CompileModeIsReported)
{
    EXPECT_EQ(statsCompiledIn(), kStatsEnabled);
}

TEST(StatsRegistryTest, CounterAccumulatesAndSnapshots)
{
    if (!statsCompiledIn())
        GTEST_SKIP() << "stats compiled out";
    StatsRegistry &reg = StatsRegistry::instance();
    const std::string name = statName("counter", "hits");
    const StatId id = reg.registerCounter(name);
    ASSERT_TRUE(id.valid());
    reg.add(id);
    reg.add(id, 41);
    EXPECT_EQ(reg.snapshot().value(name), 42u);
    // Registration is idempotent: same name, same cell.
    EXPECT_EQ(reg.registerCounter(name).cell, id.cell);
}

TEST(StatsRegistryTest, GaugeKeepsTheHighWaterMark)
{
    if (!statsCompiledIn())
        GTEST_SKIP() << "stats compiled out";
    StatsRegistry &reg = StatsRegistry::instance();
    const std::string name = statName("gauge", "depth");
    const StatId id = reg.registerGauge(name);
    reg.gaugeMax(id, 7);
    reg.gaugeMax(id, 100);
    reg.gaugeMax(id, 12); // lower value must not regress the gauge
    EXPECT_EQ(reg.snapshot().value(name), 100u);
}

TEST(StatsRegistryTest, KindMismatchOnReRegistrationPanics)
{
    if (!statsCompiledIn())
        GTEST_SKIP() << "stats compiled out";
    StatsRegistry &reg = StatsRegistry::instance();
    const std::string name = statName("mismatch", "stat");
    reg.registerCounter(name);
    EXPECT_THROW(reg.registerGauge(name), PanicError);
    EXPECT_THROW(reg.registerCounter(name, StatScope::Diag),
                 PanicError);
}

TEST(StatsRegistryTest, InvalidIdUpdatesAreNoOps)
{
    StatsRegistry &reg = StatsRegistry::instance();
    const size_t before = reg.snapshot().size();
    reg.add(StatId{});
    reg.gaugeMax(StatId{}, 99);
    reg.observe(StatId{}, 5);
    StatsSlab slab;
    slab.add(StatId{});
    EXPECT_EQ(reg.snapshot().size(), before);
}

TEST(StatsRegistryTest, HistogramBucketBoundaries)
{
    // Bucket 0 holds value 0; bucket b >= 1 holds [2^(b-1), 2^b-1].
    EXPECT_EQ(StatsRegistry::bucketOf(0), 0u);
    EXPECT_EQ(StatsRegistry::bucketOf(1), 1u);
    EXPECT_EQ(StatsRegistry::bucketOf(2), 2u);
    EXPECT_EQ(StatsRegistry::bucketOf(3), 2u);
    EXPECT_EQ(StatsRegistry::bucketOf(4), 3u);
    EXPECT_EQ(StatsRegistry::bucketOf(7), 3u);
    EXPECT_EQ(StatsRegistry::bucketOf(8), 4u);
    EXPECT_EQ(StatsRegistry::bucketOf((1ull << 20) - 1), 20u);
    EXPECT_EQ(StatsRegistry::bucketOf(1ull << 20), 21u);
    EXPECT_EQ(StatsRegistry::bucketOf(UINT64_MAX), 64u);
    EXPECT_EQ(StatsRegistry::bucketLowerBound(0), 0u);
    EXPECT_EQ(StatsRegistry::bucketLowerBound(1), 1u);
    EXPECT_EQ(StatsRegistry::bucketLowerBound(4), 8u);
    EXPECT_EQ(StatsRegistry::bucketLowerBound(21), 1ull << 20);
}

TEST(StatsRegistryTest, HistogramObservationsLandInTheirBuckets)
{
    if (!statsCompiledIn())
        GTEST_SKIP() << "stats compiled out";
    StatsRegistry &reg = StatsRegistry::instance();
    const std::string name = statName("hist", "latency");
    const StatId id = reg.registerHistogram(name);
    for (uint64_t v : {0ull, 1ull, 3ull, 4ull, 4ull, 100ull})
        reg.observe(id, v);

    const StatsSnapshot snap = reg.snapshot();
    const SnapshotEntry *entry = snap.find(name);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->kind, StatKind::Histogram);
    EXPECT_EQ(entry->hist.count, 6u);
    EXPECT_EQ(entry->hist.sum, 112u);
    // Sparse buckets, ascending: 0 -> 1, [1,1] -> 1, [2,3] -> 1,
    // [4,7] -> 2, [64,127] -> 1.
    const std::vector<std::pair<uint64_t, uint64_t>> expected = {
        {0, 1}, {1, 1}, {2, 1}, {4, 2}, {64, 1}};
    EXPECT_EQ(entry->hist.buckets, expected);
}

TEST(StatsRegistryTest, ConcurrentSameNameRegistrationAgrees)
{
    if (!statsCompiledIn())
        GTEST_SKIP() << "stats compiled out";
    StatsRegistry &reg = StatsRegistry::instance();
    const std::string name = statName("race", "counter");
    constexpr size_t kThreads = 8;
    constexpr uint64_t kAddsPerThread = 1000;
    std::vector<uint32_t> cells(kThreads, UINT32_MAX);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const StatId id = reg.registerCounter(name);
            cells[t] = id.cell;
            for (uint64_t i = 0; i < kAddsPerThread; ++i)
                reg.add(id);
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    // Every thread resolved the same cell, and no increment was
    // lost.
    for (size_t t = 1; t < kThreads; ++t)
        EXPECT_EQ(cells[t], cells[0]);
    EXPECT_EQ(reg.snapshot().value(name), kThreads * kAddsPerThread);
}

TEST(StatsRegistryTest, SlabAbsorbIsOrderInvariant)
{
    if (!statsCompiledIn())
        GTEST_SKIP() << "stats compiled out";
    StatsRegistry &reg = StatsRegistry::instance();
    const StatId counter =
        reg.registerCounter(statName("slab", "count"));
    const StatId gauge = reg.registerGauge(statName("slab", "peak"));
    const StatId hist =
        reg.registerHistogram(statName("slab", "sizes"));

    const auto fill = [&](StatsSlab &slab, uint64_t adds,
                          uint64_t peak, uint64_t sample) {
        for (uint64_t i = 0; i < adds; ++i)
            slab.add(counter);
        slab.gaugeMax(gauge, peak);
        slab.observe(hist, sample);
    };
    const auto runOrder = [&](bool reversed) {
        reg.reset();
        StatsSlab a, b, c;
        fill(a, 3, 10, 1);
        fill(b, 5, 99, 4);
        fill(c, 7, 50, 4);
        StatsSlab *slabs[] = {&a, &b, &c};
        if (reversed)
            std::swap(slabs[0], slabs[2]);
        for (StatsSlab *slab : slabs)
            reg.absorb(*slab);
        return statsJson(reg.snapshot());
    };
    const std::string forward = runOrder(false);
    EXPECT_EQ(forward, runOrder(true));

    // Absorb zeroes the slab: a second absorb adds nothing, and the
    // merged totals are the slab sums / maxes.
    reg.reset();
    StatsSlab slab;
    fill(slab, 4, 33, 2);
    reg.absorb(slab);
    reg.absorb(slab);
    const StatsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.value(statName("slab", "count")), 4u);
    EXPECT_EQ(snap.value(statName("slab", "peak")), 33u);
    const SnapshotEntry *sizes = snap.find(statName("slab", "sizes"));
    ASSERT_NE(sizes, nullptr);
    EXPECT_EQ(sizes->hist.count, 1u);
}

TEST(StatsRegistryTest, JsonExportIsStrictJsonWithBothSections)
{
    StatsRegistry &reg = StatsRegistry::instance();
    if (statsCompiledIn()) {
        reg.add(reg.registerCounter(statName("json", "stable")), 2);
        reg.add(reg.registerCounter(statName("json", "diag"),
                                    StatScope::Diag),
                3);
        reg.observe(reg.registerHistogram(statName("json", "hist")),
                    9);
    }
    const StatsSnapshot snap = reg.snapshot();
    const std::string json = statsJson(snap);
    std::string error;
    EXPECT_TRUE(test::jsonValid(json, &error)) << error;
    EXPECT_NE(json.find("\"stable\""), std::string::npos);
    EXPECT_NE(json.find("\"diag\""), std::string::npos);
    EXPECT_TRUE(test::jsonValid(statsStableJson(snap), &error))
        << error;

    std::ostringstream table;
    writeStatsTable(snap, table);
    if (statsCompiledIn()) {
        EXPECT_NE(table.str().find(statName("json", "stable")),
                  std::string::npos);
        EXPECT_NE(table.str().find(statName("json", "hist")),
                  std::string::npos);
    }
}

TEST(StatsRegistryTest, CompiledOutRegistryStaysEmpty)
{
    if (statsCompiledIn())
        GTEST_SKIP() << "stats compiled in";
    StatsRegistry &reg = StatsRegistry::instance();
    const StatId id = reg.registerCounter("test.off.counter");
    EXPECT_FALSE(id.valid());
    reg.add(id, 5);
    EXPECT_EQ(reg.snapshot().size(), 0u);
}

// ---------------------------------------------------------------
// The tentpole contract: population-fleet stable stats are a pure
// function of the workload — byte-identical snapshots at any
// shards x workers combination, matching the FleetReport totals.
// ---------------------------------------------------------------

TEST(StatsDeterminismTest, PopulationStableSnapshotIsShardInvariant)
{
    if (!statsCompiledIn())
        GTEST_SKIP() << "stats compiled out";
    StatsRegistry &reg = StatsRegistry::instance();

    const auto runAt = [&](size_t shards, size_t workers) {
        reg.reset();
        PopulationFleetConfig config;
        config.nodes = 4096;
        config.shards = shards;
        config.workers = workers;
        config.eventsPerNode = 2;
        const PopulationFleetResult result =
            runPopulationFleet(config);
        const StatsSnapshot snap = reg.snapshot();
        // Cross-check against the independently accumulated report.
        EXPECT_EQ(snap.value("population.completed"),
                  result.report.totalEvents);
        EXPECT_EQ(snap.value("population.local_fallbacks"),
                  result.report.tiers.localFallbacks);
        EXPECT_EQ(snap.value("population.cloud_throttled"),
                  result.report.tiers.cloudThrottled);
        const SnapshotEntry *latency =
            snap.find("population.latency_us");
        EXPECT_NE(latency, nullptr);
        return statsStableJson(snap);
    };

    const std::string reference = runAt(1, 1);
    ASSERT_FALSE(reference.empty());
    std::string error;
    ASSERT_TRUE(test::jsonValid(reference, &error)) << error;
    for (size_t shards : {4, 16}) {
        for (size_t workers : {1, 2, 4}) {
            EXPECT_EQ(runAt(shards, workers), reference)
                << "shards=" << shards << " workers=" << workers;
        }
    }
    reg.reset();
}

TEST(StatsDeterminismTest, PopulationStatNamesAndIdentitiesArePinned)
{
    // The population.* contract: exactly these stable names, and
    // the per-tier counters agree with the report's own totals (a
    // gateway admission is a completion; every deferral happens at
    // the phone or the gateway tier).
    if (!statsCompiledIn())
        GTEST_SKIP() << "stats compiled out";
    StatsRegistry &reg = StatsRegistry::instance();
    reg.reset();
    PopulationFleetConfig config;
    config.nodes = 4096;
    config.shards = 4;
    config.eventsPerNode = 4;
    config.tiers.sensorsPerPhone = 64;
    config.chaos = ChaosConfig::profile("harsh");
    const PopulationFleetResult result = runPopulationFleet(config);
    const StatsSnapshot snap = reg.snapshot();

    std::vector<std::string> names;
    for (const SnapshotEntry &e : snap.entries)
        if (e.scope == StatScope::Stable &&
            e.name.rfind("population.", 0) == 0)
            names.push_back(e.name);
    const std::vector<std::string> expected = {
        "population.admitted_gateway",
        "population.admitted_phone",
        "population.chaos_failovers",
        "population.chaos_migrations",
        "population.chaos_retries",
        "population.cloud_throttled",
        "population.completed",
        "population.deadline_misses",
        "population.deferred_gateway",
        "population.deferred_phone",
        "population.duty_suppressed",
        "population.latency_us",
        "population.local_fallbacks",
        "population.transfers",
        "population.wheel_items",
    };
    EXPECT_EQ(names, expected);

    const FleetReport &report = result.report;
    EXPECT_GT(report.tiers.deferredUplinks, 0u);
    EXPECT_GT(report.chaos.retries, 0u);
    EXPECT_EQ(snap.value("population.admitted_gateway"),
              snap.value("population.completed"));
    EXPECT_EQ(snap.value("population.completed"), report.totalEvents);
    EXPECT_EQ(snap.value("population.deferred_phone") +
                  snap.value("population.deferred_gateway"),
              report.tiers.deferredUplinks);
    EXPECT_EQ(snap.value("population.chaos_retries"),
              report.chaos.retries);
    const SnapshotEntry *latency = snap.find("population.latency_us");
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->hist.count, report.totalEvents);
    reg.reset();
}

TEST(StatsDeterminismTest, DesignStatNamesArePinnedAndWorkerInvariant)
{
    // The ml.* and data.* contract: exactly these stable names, one
    // fold per Svm::train or makeTestCase call, so the totals are
    // the same whichever design worker ran which node.
    if (!statsCompiledIn())
        GTEST_SKIP() << "stats compiled out";
    StatsRegistry &reg = StatsRegistry::instance();
    FleetConfig config;
    config.nodes = heterogeneousFleet(3, 5);
    size_t segments = 0;
    for (FleetNodeSpec &spec : config.nodes) {
        spec.subspaceCandidates = 6;
        spec.maxTrainingSegments = 60;
        segments += testCaseInfo(spec.testCase).segmentCount;
    }
    config.eventsPerNode = 2;

    const auto runAt = [&](size_t workers) {
        reg.reset();
        config.workers = workers;
        runFleet(config);
        std::vector<std::pair<std::string, uint64_t>> stats;
        for (const SnapshotEntry &e : reg.snapshot().entries) {
            if (e.scope == StatScope::Stable &&
                (e.name.rfind("ml.", 0) == 0 ||
                 e.name.rfind("data.", 0) == 0))
                stats.emplace_back(e.name, e.value);
        }
        return stats;
    };
    const auto one = runAt(1);
    const auto four = runAt(4);
    reg.reset();

    std::vector<std::string> names;
    for (const auto &[name, value] : one)
        names.push_back(name);
    const std::vector<std::string> expected = {
        "data.segments_skipped",
        "data.segments_synthesized",
        "ml.smo_pair_steps",
        "ml.smo_step_cap_hits",
        "ml.svm_trained",
    };
    ASSERT_EQ(names, expected);
    EXPECT_EQ(four, one);

    const auto value = [&](size_t i) { return one[i].second; };
    // Each node synthesizes only its split, and trains every
    // candidate once, each until its gap closes.
    EXPECT_GT(value(0), 0u);
    EXPECT_EQ(value(0) + value(1), segments);
    EXPECT_EQ(value(4), 3u * 6u);
    EXPECT_EQ(value(3), 0u);
    EXPECT_GT(value(2), 0u);
}

TEST(StatsDeterminismTest, CollectStatsOffLeavesPopulationStatsZero)
{
    if (!statsCompiledIn())
        GTEST_SKIP() << "stats compiled out";
    StatsRegistry &reg = StatsRegistry::instance();
    reg.reset();
    PopulationFleetConfig config;
    config.nodes = 1024;
    config.collectStats = false;
    runPopulationFleet(config);
    // The in-binary baseline knob really suppresses collection.
    EXPECT_EQ(reg.snapshot().value("population.completed"), 0u);
    reg.reset();
}

} // namespace
