/**
 * @file
 * Fleet simulation: many heterogeneous sensor nodes on one shared
 * aggregator (paper Section 5.7, "extension to multiple sensor
 * nodes", taken past the paper's separate-channel assumption).
 *
 * A fleet run has three phases:
 *
 *  1. Design. Every node gets its own XPro cut (dataset, training,
 *     generator), computed concurrently on a WorkerPool — nodes are
 *     independent until they share hardware. Deterministic per node,
 *     so the fleet outcome is identical for any worker count.
 *  2. Admission. The per-node cuts are admitted against the shared
 *     aggregator's CPU and power budget (fleet/admission); nodes
 *     that do not fit are re-partitioned toward the sensor.
 *  3. Event simulation on the detailed event simulator
 *     (sim/system_sim, the same one a single-node run uses): all
 *     nodes stream segments through one event queue. Sensor-side
 *     cells run in parallel (every node owns its silicon), but
 *     inter-end payloads serialize over one half-duplex radio
 *     channel under a pluggable arbitration policy
 *     (sim/radio_sched), and aggregator-side cells serialize on the
 *     single aggregator CPU. Per-node deadline misses, radio
 *     occupancy and aggregator utilization fall out.
 *  4. Serving (optional, FleetConfig::servingEvents > 0). The
 *     trained pipelines classify a deterministic round-robin
 *     stream of segments through the allocation-free SIMD hot path
 *     (serve/), batched across users; per-node prediction counts
 *     land in the report's serving section.
 *
 * Results surface as a FleetReport (core/report). FleetMember,
 * NodeOutage, MemberSimResult, FleetSimResult and simulateFleet are
 * declared with the simulator in sim/system_sim.hh and reach fleet
 * users through this header.
 */

#ifndef XPRO_FLEET_FLEET_HH
#define XPRO_FLEET_FLEET_HH

#include <cstdint>
#include <vector>

#include "common/arena.hh"
#include "core/evaluator.hh"
#include "core/pipeline.hh"
#include "core/report.hh"
#include "data/testcases.hh"
#include "fleet/admission.hh"
#include "fleet/chaos.hh"
#include "fleet/tiers.hh"
#include "common/worker_pool.hh"
#include "sim/system_sim.hh"
#include "wireless/fault.hh"

namespace xpro
{

/** One sensor node's static description in a fleet. */
struct FleetNodeSpec
{
    TestCase testCase = TestCase::C1;
    ProcessNode process = ProcessNode::Tsmc90;
    /** Dataset + training seed (distinct seeds, distinct bodies). */
    uint64_t seed = 2017;
    /** Random-subspace candidates (scaled down for fleet runs). */
    size_t subspaceCandidates = 40;
    /** Training segment cap (0 = everything). */
    size_t maxTrainingSegments = 250;
};

/** Shared-radio arbitration policy selector. */
enum class RadioPolicy
{
    Fcfs,
    Tdma,
};

/** Full configuration of one fleet run. */
struct FleetConfig
{
    std::vector<FleetNodeSpec> nodes;
    /** Transceiver model shared by all nodes (one channel). */
    WirelessModel wireless = WirelessModel::Model2;
    /** Channel bit error rate (0 = ideal). */
    double bitErrorRate = 0.0;
    RadioPolicy policy = RadioPolicy::Fcfs;
    /**
     * TDMA slot length; zero derives it from the largest payload
     * any node can put on the air (every transfer fits one slot).
     */
    Time tdmaSlot;
    /** Design-phase worker threads. */
    size_t workers = 1;
    /**
     * Worker threads inside each node's generator, evaluating the
     * Lagrangian sweep's candidate placements (GeneratorOptions::
     * sweepWorkers). Composes with @ref workers: the design phase
     * can run up to workers * sweepWorkers threads. Any value
     * produces a byte-identical FleetReport (tested).
     */
    size_t sweepWorkers = 1;
    /** Simulated events per node. */
    size_t eventsPerNode = 6;
    /**
     * Multiplier on every node's event rate in the event
     * simulation only (stress the shared channel and CPU without
     * redesigning the cuts).
     */
    double eventRateScale = 1.0;
    /**
     * Steady-state serving events classified after the event
     * simulation (phase 4): segments are drawn round-robin across
     * the nodes' regenerated datasets and pushed through each
     * node's trained pipeline on the allocation-free SIMD hot path
     * (serve/). 0 disables the phase; the report is then
     * byte-identical to a build without it.
     */
    size_t servingEvents = 0;
    /**
     * Cross-user serving batch size: one inference batch spans up
     * to this many concurrent events from any mix of nodes. 0 means
     * one batch over everything. Predictions and the serialized
     * report are bit-identical at any value (tested).
     */
    size_t batchEvents = 0;
    /** Serving worker threads (0 = one per hardware thread,
     *  1 = inline). Bit-identical at any value (tested). */
    size_t servingWorkers = 1;
    AdmissionConfig admission;
    /**
     * Fault injection on the shared channel (event simulation
     * only; the design phase keeps the expectation-level channel).
     * Disabled by default: the report is then byte-identical to a
     * fault-free build.
     */
    FaultProfile faults;
    /**
     * Scripted per-node dropouts. Honored even when @ref faults is
     * disabled (the ARQ/fallback machinery is enabled with an
     * otherwise loss-free channel).
     */
    std::vector<NodeOutage> nodeOutages;
};

/**
 * N heterogeneous node specs: test cases and process nodes cycle,
 * seeds are distinct (distinct synthetic bodies).
 */
std::vector<FleetNodeSpec> heterogeneousFleet(size_t count,
                                              uint64_t seed = 2017);

/** Everything known about one node after a fleet run. */
struct FleetNodeResult
{
    FleetNodeSpec spec;
    XProDesign design;
    NodeAdmission admission;
    /** Evaluation of the admitted placement. */
    EngineEvaluation evaluation;
};

/** Outcome of a full fleet run. */
struct FleetResult
{
    std::vector<FleetNodeResult> nodes;
    AdmissionResult admission;
    FleetSimResult sim;
    FleetReport report;
    /**
     * Design-phase pool accounting (host timings; deliberately not
     * part of the report): total task CPU time, the busiest
     * worker's CPU time, and the wall-clock duration.
     */
    Time designWork;
    Time designMakespan;
    Time designWall;
};

/**
 * Design every node of @p specs concurrently on @p pool, with
 * @p sweep_workers threads inside each node's generator sweep.
 * Result i belongs to spec i regardless of either worker count.
 * Each node synthesizes only the segments its trainingSplit() reads;
 * the designs equal those trained on the full datasets bit for bit.
 */
std::vector<XProDesign>
designFleet(const std::vector<FleetNodeSpec> &specs,
            WirelessModel wireless, double bit_error_rate,
            WorkerPool &pool, size_t sweep_workers = 1);

/** Full fleet flow: parallel design, admission, event simulation. */
FleetResult runFleet(const FleetConfig &config);

// --- Population-scale fleet (DESIGN.md §16) --------------------------
//
// The detailed simulation above models every dataflow cell of every
// node — right for tens of nodes, hopeless for a million. The
// population path keeps only what matters at scale: each node is a
// row in a struct-of-arrays slab (NodeSlabs), events are 24-byte
// records on a sharded hierarchical time wheel (sim/event_queue),
// and contention is local to the tier hierarchy (fleet/tiers).

/**
 * One class of nodes in a population-scale fleet: the per-event
 * integer costs of a designed XPro cut, shared by every node of the
 * class. Costs are integers (microseconds, nanojoules) so the whole
 * simulation stays in integer arithmetic and merges identically for
 * any shard grouping; doubles appear only in the report.
 */
struct PopulationArchetype
{
    /** Report row labels. */
    std::string symbol;
    std::string process;
    /** In-sensor compute per event. */
    uint64_t sensorComputeUs = 2000;
    /** Phone-tier (aggregator) compute per event. */
    uint64_t phoneComputeUs = 200;
    /** Sensor -> phone payload airtime (cell-local channel). */
    uint64_t uplinkAirtimeUs = 400;
    /** Phone -> gateway airtime. */
    uint64_t gatewayAirtimeUs = 100;
    /** Battery drawn per sensed event (compute + radio). */
    uint64_t eventEnergyNj = 60000;
    /** Initial sensor battery. */
    uint64_t batteryNj = 2000000000ULL;
    /** Event (segment) period; the rate is 1e6 / periodUs. */
    uint64_t periodUs = 1000000;
    /** Cells in the sensor / total, and held-out accuracy — report
     *  row context copied from the class's design. */
    size_t sensorCells = 0;
    size_t totalCells = 0;
    double accuracy = 0.0;
};

/**
 * Synthetic archetype mix with the cost spread of the paper's six
 * test cases (heavy in-sensor ECG cuts through light accelerometer
 * offloads). Nodes cycle through the classes, so any fleet size
 * exercises every class.
 */
std::vector<PopulationArchetype> syntheticArchetypes();

/** Largest PopulationFleetConfig::eventsPerNode: the timing wheel
 *  packs the event index into the low 24 bits of an item's data. */
constexpr uint64_t kMaxPopulationEventsPerNode = (uint64_t{1} << 24) - 1;

/** Largest members x events-per-member of one detailed simulation
 *  (simulateFleet, or a single-node fault-injected stream as one
 *  member). The simulator's state follows the events in flight, so
 *  this bounds run time, not memory; the CLI rejects bigger runs at
 *  parse time. */
constexpr uint64_t kMaxDetailedOfferedEvents = uint64_t{1} << 20;

/** Largest nodes x subspace candidates of one fleet design
 *  (designFleet). Each candidate is one RBF SVM trained by SMO, so
 *  this work, not the simulation, bounds a big fleet's run time. At
 *  the FleetNodeSpec defaults (40 candidates, 250 training rows) a
 *  candidate costs about 2 ms on one Xeon (Sapphire Rapids) core,
 *  the node's synthesis, features and cut included; 2^16 candidates
 *  (1638 default nodes) keep a one-worker design phase near two
 *  minutes. Bigger fleets belong on the population path. The CLI
 *  rejects them at parse time. */
constexpr uint64_t kMaxFleetDesignCandidates = uint64_t{1} << 16;

/** Configuration of one population-scale run. */
struct PopulationFleetConfig
{
    uint64_t nodes = 10000;
    /** Event-queue shards; clamped to the gateway count (a shard
     *  owns whole gateways). Any value yields byte-identical
     *  reports (tested). */
    size_t shards = 1;
    /** Worker threads draining the shards. Any value yields
     *  byte-identical reports (tested). */
    size_t workers = 1;
    /** Sensed events per node, at most
     *  kMaxPopulationEventsPerNode. */
    uint64_t eventsPerNode = 2;
    /** Phase-stagger seed (nodes must not inject in lockstep). */
    uint64_t seed = 2017;
    /** Conservative-sync window; also the budget-reset period of
     *  the tier admission. */
    uint64_t windowUs = 100000;
    TierConfig tiers;
    /** Node classes; empty selects syntheticArchetypes(). */
    std::vector<PopulationArchetype> archetypes;
    /** Deterministic chaos schedule (fleet/chaos); disabled by
     *  default. A disabled schedule runs as the inert one (nothing
     *  fails, deferrals park at the next window boundary) and the
     *  report carries no chaos section. */
    ChaosConfig chaos;
    /** Sensor-uplink channel faults: the same shared FaultProfile
     *  the detailed path consumes, applied per-attempt at population
     *  scale via stateless hash draws (no sequential RNG, so the
     *  report stays shard/worker-invariant). Disabled by default. */
    FaultProfile faults;
    /**
     * Record population.* stats into the global StatsRegistry
     * (per-shard slabs on the hot path, absorbed once at the end).
     * bench_stats_overhead flips this off for its in-binary
     * baseline; it has no effect when stats are compiled out.
     */
    bool collectStats = true;
};

/**
 * Struct-of-arrays per-node state: six parallel slabs in one arena,
 * 21 bytes a node, so a million nodes fit in a few tens of
 * megabytes. Indexed by node id; all slabs are plain old data (the
 * arena never runs destructors).
 */
class NodeSlabs
{
  public:
    NodeSlabs(Arena &arena, uint64_t count, size_t archetypes);

    uint64_t count() const { return _count; }

    /** Archetype (node class) index. */
    uint16_t *archetype() { return _archetype; }
    /** Remaining battery in nanojoules. */
    uint64_t *battery() { return _battery; }
    /** Consecutive events kept on the sensor (outage counter). */
    uint16_t *outageStreak() { return _outageStreak; }
    /** Serving gateway: the topology's native gateway until a chaos
     *  failover re-homes the node. Only the barrier writes it. */
    uint32_t *gateway() { return _gateway; }
    /** Churn rejoin window (~0 = the node never churns). */
    uint32_t *churnJoin() { return _churnJoin; }
    /** Gilbert-Elliott channel state, nonzero = bad (fault runs). */
    uint8_t *linkBad() { return _linkBad; }

    /** Slab bytes per node (the "tens of bytes" contract). */
    static constexpr size_t
    bytesPerNode()
    {
        return sizeof(uint16_t) + sizeof(uint64_t) +
               sizeof(uint16_t) + sizeof(uint32_t) +
               sizeof(uint32_t) + sizeof(uint8_t);
    }

  private:
    uint64_t _count = 0;
    uint16_t *_archetype = nullptr;
    uint64_t *_battery = nullptr;
    uint16_t *_outageStreak = nullptr;
    uint32_t *_gateway = nullptr;
    uint32_t *_churnJoin = nullptr;
    uint8_t *_linkBad = nullptr;
};

/** Outcome of a population-scale run. */
struct PopulationFleetResult
{
    /** Same report type as the detailed path; rows are per
     *  archetype, the tiers section is enabled. Byte-identical at
     *  any shard/worker count. */
    FleetReport report;
    /** Wheel items processed (inject + uplink + gateway hops). */
    uint64_t simulatedEvents = 0;
    /** Shards actually used (min of requested, gateways, nodes). */
    size_t effectiveShards = 0;
    /** Node-state slab bytes per node. */
    size_t bytesPerNode = 0;
};

/**
 * Simulate @p config.nodes nodes through the sensor -> phone ->
 * gateway -> cloud hierarchy on a sharded event queue. The report
 * is a pure function of the configuration: shards and workers only
 * change wall-clock time, never a byte of the serialization (the
 * PR 2/3/6 determinism discipline; tested and TSan-checked).
 */
PopulationFleetResult
runPopulationFleet(const PopulationFleetConfig &config);

} // namespace xpro

#endif // XPRO_FLEET_FLEET_HH
