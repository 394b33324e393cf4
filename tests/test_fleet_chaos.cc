/**
 * @file
 * Tests for the deterministic chaos layer (DESIGN.md §18): the
 * seeded schedule of gateway crashes, cloud outages and node churn
 * must leave the FleetReport byte-identical at any shards x workers
 * combination; a disabled schedule must leave the report
 * byte-identical to a run that never heard of chaos; and the
 * self-healing responses (failover migration, retry backoff, the
 * degradation ladder) must account for every offered event.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/logging.hh"
#include "core/report.hh"
#include "fleet/chaos.hh"
#include "fleet/fleet.hh"

namespace
{

using namespace xpro;

FleetReport
runChaos(const ChaosConfig &chaos, size_t shards, size_t workers,
         uint64_t nodes = 8192, uint64_t events = 6,
         const TierConfig &tiers = TierConfig{})
{
    PopulationFleetConfig config;
    config.nodes = nodes;
    config.shards = shards;
    config.workers = workers;
    config.eventsPerNode = events;
    config.chaos = chaos;
    config.tiers = tiers;
    return runPopulationFleet(config).report;
}

/** Offered events partition into completions, sensor-local
 *  fallbacks, duty suppressions and chaos-dropped in-flight items —
 *  nothing may vanish silently. */
void
expectEventAccounting(const FleetReport &report, uint64_t nodes,
                      uint64_t events)
{
    EXPECT_EQ(report.totalEvents + report.tiers.localFallbacks +
                  report.tiers.dutySuppressed +
                  report.chaos.droppedEvents,
              nodes * events);
}

TEST(FleetChaosTest, DisabledScheduleLeavesReportUntouched)
{
    // Chaos knobs set but enabled == false must be byte-identical
    // to a configuration that never mentioned chaos: the hot path
    // may not even smell the config.
    PopulationFleetConfig plain;
    plain.nodes = 4096;
    plain.shards = 4;
    plain.eventsPerNode = 3;
    const std::string reference =
        runPopulationFleet(plain).report.serialize();

    PopulationFleetConfig armed = plain;
    armed.chaos = ChaosConfig::profile("harsh");
    armed.chaos.enabled = false;
    EXPECT_EQ(runPopulationFleet(armed).report.serialize(),
              reference);
    // And the disabled report carries no chaos section at all.
    EXPECT_EQ(reference.find("chaos v1"), std::string::npos);
}

TEST(FleetChaosTest, ReportByteIdenticalAcrossShardsAndWorkers)
{
    // The §18 determinism gate under an ACTIVE schedule: crashes,
    // failover migrations, cloud outages and churn all happen at
    // window barriers keyed on stable ids, so the serialized report
    // is a pure function of the configuration.
    const ChaosConfig chaos = ChaosConfig::profile("harsh");
    const std::string reference = runChaos(chaos, 1, 1).serialize();
    EXPECT_NE(reference.find("chaos v1"), std::string::npos);
    for (size_t shards : {4, 16}) {
        for (size_t workers : {1, 2, 4}) {
            EXPECT_EQ(runChaos(chaos, shards, workers).serialize(),
                      reference)
                << "shards=" << shards << " workers=" << workers;
        }
    }

    // Many small gateways under the flaky profile: crashes cascade
    // around the ring, so guests move on more than once before their
    // natives fail back.
    const ChaosConfig flaky = ChaosConfig::profile("flaky");
    TierConfig ring;
    ring.sensorsPerPhone = 4;
    ring.phonesPerGateway = 8;
    const uint64_t nodes = 8192; // 256 gateways at 4:8
    const uint64_t events = 4;
    const FleetReport ring_ref =
        runChaos(flaky, 1, 1, nodes, events, ring);
    EXPECT_GT(ring_ref.chaos.failovers, 0u);
    EXPECT_GT(ring_ref.chaos.failbackNodes, 0u);
    expectEventAccounting(ring_ref, nodes, events);
    const std::string ring_bytes = ring_ref.serialize();
    for (size_t shards : {1, 4, 16}) {
        for (size_t workers : {1, 3}) {
            EXPECT_EQ(runChaos(flaky, shards, workers, nodes, events,
                               ring)
                          .serialize(),
                      ring_bytes)
                << "ring shards=" << shards << " workers=" << workers;
        }
    }
}

TEST(FleetChaosTest, GatewayCrashMigratesNodesToNeighbor)
{
    // Flaky profile on a multi-gateway fleet: every crash with a
    // live neighbor must fail over, re-homing the dead gateway's
    // nodes; restarts bring them back. No event may vanish.
    ChaosConfig chaos = ChaosConfig::profile("flaky");
    const uint64_t nodes = 16384; // 8 gateways at 32:64
    const FleetReport report = runChaos(chaos, 4, 2, nodes, 6);

    EXPECT_GT(report.chaos.gatewayCrashes, 0u);
    EXPECT_GT(report.chaos.failovers, 0u);
    EXPECT_GT(report.chaos.migratedNodes, 0u);
    EXPECT_GT(report.chaos.failbackNodes, 0u);
    EXPECT_GT(report.chaos.gatewayDownWindows, 0u);
    EXPECT_GE(report.chaos.gatewayCrashes,
              report.chaos.gatewayRestarts);
    EXPECT_FALSE(report.chaos.episodes.empty() &&
                 report.chaos.droppedEpisodes == 0);
    expectEventAccounting(report, nodes, 6);
}

TEST(FleetChaosTest, CloudOutageDegradesToGatewayLocal)
{
    // Rung 1 of the degradation ladder: with the cloud unreachable
    // the gateways aggregate locally — events keep completing, no
    // ingest quota is burned, nothing falls back to the sensor.
    ChaosConfig chaos;
    chaos.enabled = true;
    chaos.cloudOutages.push_back({0, 1000000}); // the whole run
    const uint64_t nodes = 4096;
    const FleetReport report = runChaos(chaos, 4, 2, nodes, 4);

    EXPECT_GT(report.chaos.gatewayLocalEvents, 0u);
    EXPECT_GT(report.chaos.cloudDownWindows, 0u);
    EXPECT_EQ(report.chaos.gatewayCrashes, 0u);
    EXPECT_EQ(report.tiers.cloudThrottled, 0u);
    expectEventAccounting(report, nodes, 4);
}

TEST(FleetChaosTest, ChurnParksInjectsAndReplaysOnRejoin)
{
    // Churned-out nodes: in-flight transport is dropped (charged to
    // droppedEvents), pending self-injects park until the rejoin
    // tick and replay late — so leaves == joins and the accounting
    // still closes.
    const ChaosConfig chaos = ChaosConfig::profile("churn");
    const uint64_t nodes = 8192;
    const FleetReport report = runChaos(chaos, 4, 2, nodes, 6);

    EXPECT_GT(report.chaos.churnLeaves, 0u);
    EXPECT_EQ(report.chaos.churnLeaves, report.chaos.churnJoins);
    EXPECT_GT(report.chaos.parkedInjects, 0u);
    EXPECT_GT(report.chaos.replayedEvents, 0u);
    expectEventAccounting(report, nodes, 6);
}

TEST(FleetChaosTest, LoneGatewayCrashBlacksOutItsNodes)
{
    // A single-gateway fleet has no failover target: when its
    // gateway dies the ladder bottoms out at sensor-local
    // classification, with zero failovers and zero migrations.
    ChaosConfig chaos;
    chaos.enabled = true;
    chaos.gatewayMtbfWindows = 4;
    chaos.gatewayMttrWindows = 4;
    const uint64_t nodes = 512; // one gateway at 32:64
    const FleetReport report = runChaos(chaos, 1, 1, nodes, 8);

    EXPECT_GT(report.chaos.gatewayCrashes, 0u);
    EXPECT_EQ(report.chaos.failovers, 0u);
    EXPECT_EQ(report.chaos.migratedNodes, 0u);
    EXPECT_GT(report.chaos.blackoutFallbacks, 0u);
    expectEventAccounting(report, nodes, 8);
}

TEST(FleetChaosTest, SharedFaultProfileDrivesPopulationArq)
{
    // The unified FaultProfile (wireless/fault.hh) drives the
    // population path's per-uplink ARQ: offered partitions into
    // delivered + abandoned, and the report stays byte-identical
    // across shard groupings even with the Gilbert-Elliott state
    // machine running per node.
    const auto runAt = [](size_t shards, size_t workers) {
        PopulationFleetConfig config;
        config.nodes = 8192;
        config.shards = shards;
        config.workers = workers;
        config.eventsPerNode = 4;
        config.faults = FaultProfile::preset("harsh");
        return runPopulationFleet(config).report;
    };
    const FleetReport report = runAt(1, 1);

    EXPECT_TRUE(report.robustness.enabled);
    EXPECT_GT(report.robustness.packetsOffered, 0u);
    EXPECT_EQ(report.robustness.packetsDelivered +
                  report.robustness.packetsAbandoned,
              report.robustness.packetsOffered);
    EXPECT_GE(report.robustness.attempts,
              report.robustness.packetsOffered);
    EXPECT_EQ(report.robustness.degradedEvents,
              report.robustness.packetsAbandoned);
    EXPECT_EQ(runAt(8, 4).serialize(), report.serialize());
}

TEST(FleetChaosTest, RobustnessSectionFormatIsShared)
{
    // The RobustnessReport serialization is the contract both the
    // detailed path (sim/fault_sim) and the population path emit;
    // pin its bytes so neither can drift away from the other.
    RobustnessReport r;
    r.enabled = true;
    r.packetsOffered = 10;
    r.packetsDelivered = 9;
    r.packetsAbandoned = 1;
    r.attempts = 14;
    r.retryHistogram = {7, 2};
    EXPECT_EQ(r.serialize(),
              "robustness v1\n"
              "packets 10 9 1\n"
              "attempts 14\n"
              "retries 7 2\n"
              "probes 0\n"
              "degraded_events 0\n"
              "buffered 0\n"
              "replayed 0\n"
              "outages 0\n"
              "outage_ms 0.000000000e+00\n"
              "recovery_ms 0.000000000e+00\n");
}

TEST(FleetChaosTest, ChaosConfigValidatesItsKnobs)
{
    ChaosConfig chaos;
    chaos.enabled = true;
    chaos.gatewayMtbfWindows = 8;
    chaos.gatewayMttrWindows = 0;
    EXPECT_THROW(chaos.validate(), FatalError);
    chaos.gatewayMttrWindows = 2;
    EXPECT_NO_THROW(chaos.validate());
    chaos.cloudOutages.push_back({5, 5});
    EXPECT_THROW(chaos.validate(), FatalError);
    chaos.cloudOutages.back() = {5, 6};
    EXPECT_NO_THROW(chaos.validate());
    chaos.churnFraction = 1.5;
    EXPECT_THROW(chaos.validate(), FatalError);
    chaos.churnFraction = 0.5;
    chaos.churnSpreadWindows = 0;
    EXPECT_THROW(chaos.validate(), FatalError);
    EXPECT_THROW(ChaosConfig::profile("bogus"), FatalError);
    EXPECT_FALSE(ChaosConfig::profile("none").enabled);
}

} // namespace
