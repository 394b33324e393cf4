/**
 * @file
 * Reporting helpers: CSV emission for the evaluation series so the
 * paper's figures can be re-plotted from machine-readable data, a
 * small fixed-width table writer shared by tools, and the fleet
 * report consumed by the fleet simulation surfaces (CLI, examples,
 * benches, tests).
 */

#ifndef XPRO_CORE_REPORT_HH
#define XPRO_CORE_REPORT_HH

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace xpro
{

/** Accumulates rows and writes RFC-4180-style CSV. */
class CsvTable
{
  public:
    /** Define the header row. */
    explicit CsvTable(std::vector<std::string> columns);

    /** Start a new row; values are appended with add(). */
    CsvTable &beginRow();

    /** Append a string cell (quoted/escaped as needed). */
    CsvTable &add(const std::string &value);

    /** Append a numeric cell. */
    CsvTable &add(double value);
    CsvTable &add(size_t value);

    size_t rowCount() const { return _rows.size(); }

    /** Write header plus rows. Panics on ragged rows. */
    void write(std::ostream &out) const;

    /** Convenience: write to a file path; fatal on I/O failure. */
    void writeFile(const std::string &path) const;

  private:
    static std::string escape(const std::string &value);

    std::vector<std::string> _columns;
    std::vector<std::vector<std::string>> _rows;
};

/**
 * Outcome of one fault-injected run: what the bursty-loss channel,
 * the bounded ARQ and the outage detector did. Plain data filled by
 * the event simulators (sim/, fleet/); disabled (all zeros) when
 * fault injection is off, in which case serializers emit nothing so
 * legacy outputs stay byte-identical.
 *
 * Deterministic: for a fixed fault seed and configuration the
 * report is a pure function of the run, regardless of host worker
 * counts (a tested invariant).
 */
struct RobustnessReport
{
    /** True when a fault profile was active for the run. */
    bool enabled = false;
    /** Payload packets submitted to the ARQ machine (excluding
     *  recovery probes). */
    size_t packetsOffered = 0;
    /** Packets eventually acknowledged. */
    size_t packetsDelivered = 0;
    /** Packets abandoned after exhausting max retries. */
    size_t packetsAbandoned = 0;
    /** Transmission attempts across all packets and probes. */
    size_t attempts = 0;
    /** retryHistogram[r] = packets delivered after r retries. */
    std::vector<size_t> retryHistogram;
    /** Recovery probes sent while the link was declared down. */
    size_t probes = 0;
    /** Events classified via the sensor-local fallback placement. */
    size_t degradedEvents = 0;
    /** Locally classified results still awaiting replay at the end
     *  of the run (link never recovered in time). */
    size_t bufferedResults = 0;
    /** Locally classified results delivered after link recovery. */
    size_t replayedResults = 0;
    /** Outage episodes declared by the K-consecutive-abandon
     *  detector. */
    size_t outages = 0;
    /** Total declared-outage time. */
    double outageTimeMs = 0.0;
    /** Mean local-classification-to-replay-delivery latency over
     *  replayed results. */
    double meanRecoveryMs = 0.0;

    /** Canonical, byte-exact serialization (same rules as
     *  FleetReport::serialize). */
    std::string serialize() const;

    /** Human-readable summary. */
    void writeText(std::ostream &out) const;
};

/**
 * One decision of the runtime-adaptive cross-end controller
 * (control/): what it observed at a control-window boundary and what
 * it did about it.
 */
struct ControlDecision
{
    /** Control-window index the decision closed (0-based). */
    size_t window = 0;
    /** Simulated time of the window boundary. */
    double atMs = 0.0;
    /**
     * What happened: "repartition" (new cut adopted and cells
     * migrated), "retune" (knobs changed but the cut held),
     * "hold" (proposal within the hysteresis band),
     * "dwell" (proposal suppressed by the minimum dwell time) or
     * "steady" (telemetry matched the active operating point).
     */
    std::string action;
    /** Mean ARQ attempts per delivered packet fed to the generator
     *  (1 = nominal channel). */
    double observedScale = 1.0;
    /** Observed event rate fed to the generator (events/s). */
    double observedRate = 0.0;
    /** Battery state of charge at the boundary, 0..1. */
    double stateOfCharge = 0.0;
    /** Duty-cycle level index chosen for the next window. */
    size_t dutyLevel = 0;
    /** In-sensor cells after the decision. */
    size_t sensorCells = 0;
    /** Cells migrated across ends by the handover. */
    size_t movedCells = 0;
    /** Snapshot + drain + cutover energy charged to the sensor. */
    double handoverUj = 0.0;
    /** Airtime the handover occupied on the shared channel. */
    double handoverMs = 0.0;
    /** Relative objective improvement of the adopted (or rejected)
     *  proposal over the active placement, e.g. 0.12 = 12%. */
    double improvement = 0.0;
};

/**
 * Decision trace of one adaptive run. Disabled (empty) when the
 * controller is off, in which case serializers emit nothing so
 * static-path outputs stay byte-identical. Deterministic: for a
 * fixed seed and configuration the trace is a pure function of the
 * run, regardless of host worker counts (a tested invariant).
 */
struct ControlReport
{
    /** True when the adaptive controller drove the run. */
    bool enabled = false;
    /** Control windows evaluated. */
    size_t windows = 0;
    /** Adopted re-partitions (cells actually migrated). */
    size_t repartitions = 0;
    /** Proposals rejected by the hysteresis band. */
    size_t hysteresisHolds = 0;
    /** Proposals suppressed by the minimum dwell time. */
    size_t dwellHolds = 0;
    /** Flow networks built from scratch by the generator. */
    size_t coldSolves = 0;
    /** Cuts solved on the persistent network. */
    size_t warmSolves = 0;
    /** Total handover energy charged to the sensor battery. */
    double handoverTotalUj = 0.0;
    /** Total handover airtime. */
    double handoverTotalMs = 0.0;
    /** Chronological decision trace (one entry per window, up to
     *  the controller's retention cap). */
    std::vector<ControlDecision> decisions;
    /** Decisions beyond the retention cap: counted above but not
     *  retained in @ref decisions (multi-week lifetime runs would
     *  otherwise grow the trace without bound). */
    size_t droppedDecisions = 0;

    /** Canonical, byte-exact serialization (same rules as
     *  FleetReport::serialize). */
    std::string serialize() const;

    /** Human-readable decision trace plus totals. */
    void writeText(std::ostream &out) const;
};

/**
 * Outcome of the fleet's steady-state serving phase: the trained
 * pipelines classifying a round-robin stream of segments through
 * the allocation-free SIMD hot path (serve/), batched across users.
 * Disabled when the run served no events, in which case serializers
 * emit nothing so legacy reports stay byte-identical.
 *
 * Deliberately records only prediction-derived counts — never batch
 * size, worker count or timings — so the serialized report is
 * byte-identical at any --batch-events / --serve-workers setting
 * (the cross-user batching bit-identity invariant, tested).
 */
struct ServingReport
{
    /** True when the run served at least one event. */
    bool enabled = false;
    /** Serving events classified fleet-wide. */
    size_t events = 0;
    /** Fleet nodes (users) the events were drawn from. */
    size_t users = 0;
    /** Events classified +1 fleet-wide. */
    size_t positives = 0;
    /** Per-node events served / +1 classifications. */
    std::vector<size_t> nodeEvents;
    std::vector<size_t> nodePositives;

    /** Canonical, byte-exact serialization (same rules as
     *  FleetReport::serialize). */
    std::string serialize() const;

    /** Human-readable summary. */
    void writeText(std::ostream &out) const;
};

/**
 * Outcome of the hierarchical aggregation tiers in a
 * population-scale fleet run (fleet/tiers, fleet/population):
 * sensor -> phone -> edge gateway -> cloud counters. Disabled (and
 * absent from both serializations) for the detailed per-cell fleet
 * path, so legacy reports stay byte-identical.
 *
 * Deliberately records only simulation-derived counts — never shard
 * or worker counts — so the serialized report is byte-identical at
 * any --shards / --workers setting (a tested invariant).
 */
struct TiersReport
{
    /** True when the run went through the tier hierarchy. */
    bool enabled = false;
    /** Fan-out actually used. */
    size_t sensorsPerPhone = 0;
    size_t phonesPerGateway = 0;
    /** Instantiated tier populations. */
    size_t phones = 0;
    size_t gateways = 0;
    /** Synchronization windows the simulation ran. */
    size_t windows = 0;
    /** Uplinks pushed to a later window for lack of phone compute
     *  or gateway airtime budget. */
    size_t deferredUplinks = 0;
    /** Events that exhausted the defer cap and were classified
     *  locally on the sensor. */
    size_t localFallbacks = 0;
    /** Events suppressed by the sensors' duty-cycle gating. */
    size_t dutySuppressed = 0;
    /** Events bounced by the per-gateway cloud ingest quota. */
    size_t cloudThrottled = 0;
    /** Phone-tier analytics compute actually spent. */
    double phoneBusyMs = 0.0;
    /** Gateway airtime actually occupied. */
    double gatewayBusyMs = 0.0;

    /** Canonical, byte-exact serialization (same rules as
     *  FleetReport::serialize). */
    std::string serialize() const;

    /** Human-readable summary. */
    void writeText(std::ostream &out) const;
};

/**
 * One transition of the deterministic chaos schedule: a gateway
 * crash/restart or a cloud reachability flip, stamped with the
 * window boundary it happened at and the nodes it re-homed.
 */
struct ChaosEpisode
{
    /** Simulated time of the window boundary. */
    double atMs = 0.0;
    /** "crash", "restart", "cloud-down" or "cloud-up". */
    std::string kind;
    /** Gateway the transition hit (0 for cloud transitions). */
    size_t gateway = 0;
    /** Nodes migrated (failover) or failed back (restart) by the
     *  transition's self-healing response. */
    size_t nodes = 0;
};

/**
 * Outcome of a population run under the deterministic chaos layer
 * (fleet/chaos): injected failures, the self-healing responses they
 * triggered, and the degradation ladder's per-rung counts. Disabled
 * (and absent from both serializations) when chaos is off, so
 * chaos-free reports stay byte-identical to the pre-chaos output.
 *
 * Like TiersReport, records only simulation-derived counts — never
 * shard or worker counts — so the serialization is byte-identical at
 * any --shards / --workers combination (a tested invariant).
 */
struct ChaosReport
{
    /** True when a chaos schedule drove the run. */
    bool enabled = false;
    /** Injected gateway transitions. */
    size_t gatewayCrashes = 0;
    size_t gatewayRestarts = 0;
    /** Crashes that found a live neighbor gateway to fail over to
     *  (the remainder were total blackouts). */
    size_t failovers = 0;
    /** Node re-homings, failover and fail-back combined. */
    size_t migratedNodes = 0;
    /** Nodes returned to their restarted native gateway. */
    size_t failbackNodes = 0;
    /** Pending event-queue items re-keyed to a new gateway's shard
     *  by migrations. */
    size_t rekeyedItems = 0;
    /** Deferred events re-scheduled by the exponential-backoff
     *  retry path (chaos runs retry instead of window-parking). */
    size_t retries = 0;
    /** In-flight transport events dropped when their node churned
     *  out (the queue's documented drop side of the contract). */
    size_t droppedEvents = 0;
    /** Sensing self-events parked until their node rejoins (the
     *  redirect side of the contract). */
    size_t parkedInjects = 0;
    /** Events sensed late — after a churn absence — and replayed. */
    size_t replayedEvents = 0;
    /** Events completed by gateway-local aggregation while the
     *  cloud tier was unreachable (degradation rung 1). */
    size_t gatewayLocalEvents = 0;
    /** Events classified sensor-locally because every reachable
     *  gateway was down (degradation rung 2). */
    size_t blackoutFallbacks = 0;
    /** Churn transitions actually applied. */
    size_t churnLeaves = 0;
    size_t churnJoins = 0;
    /** Per-tier downtime: sum over windows of down gateways, and
     *  windows the cloud was unreachable. */
    size_t gatewayDownWindows = 0;
    size_t cloudDownWindows = 0;
    /** Worst consecutive-failure streak any node accumulated. */
    size_t maxOutageStreak = 0;
    /** Total handover penalty charged to re-keyed items. */
    double handoverMs = 0.0;
    /** Chronological transition trace, up to the retention cap. */
    std::vector<ChaosEpisode> episodes;
    /** Transitions beyond the cap: counted above, not retained. */
    size_t droppedEpisodes = 0;

    /** Canonical, byte-exact serialization (same rules as
     *  FleetReport::serialize). */
    std::string serialize() const;

    /** Human-readable summary. */
    void writeText(std::ostream &out) const;
};

/**
 * One node's line in a fleet report. Plain data (names and SI-scaled
 * numbers) so the report stays independent of the fleet subsystem's
 * types and serializes canonically.
 */
struct FleetNodeReportRow
{
    /** Test-case symbol, e.g. "C1". */
    std::string symbol;
    /** Process node of the in-sensor part, e.g. "90 nm". */
    std::string process;
    /** Admission outcome: "offload", "repartition" or "in-sensor". */
    std::string admission;
    /** Cells placed in the sensor / total cells. */
    size_t sensorCells = 0;
    size_t totalCells = 0;
    /** Held-out classification accuracy. */
    double accuracy = 0.0;
    /** Event (segment) rate of the node. */
    double eventsPerSecond = 0.0;
    /** Sensor battery lifetime under the admitted placement. */
    double sensorLifetimeHours = 0.0;
    /** Simulated events and real-time deadline misses. */
    size_t events = 0;
    size_t deadlineMisses = 0;
    /** Simulated completion latencies. */
    double meanLatencyMs = 0.0;
    double worstLatencyMs = 0.0;
    /** Aggregator analytics power the node was admitted with. */
    double aggregatorPowerUw = 0.0;
    /** Events this node classified via its local fallback (only
     *  nonzero in fault-injected runs). */
    size_t degradedEvents = 0;
};

/**
 * Fleet-level results of one many-node simulation: per-node rows
 * plus shared-resource (radio, aggregator) figures.
 *
 * The report is a pure function of the fleet configuration: the
 * design phase may run on any number of worker threads and
 * serialize() must still produce byte-identical output (a tested
 * invariant).
 */
struct FleetReport
{
    /** Radio arbitration policy tag ("fcfs" or "tdma"). */
    std::string policy;
    size_t nodeCount = 0;
    size_t totalEvents = 0;
    size_t totalDeadlineMisses = 0;
    /** Simulated time span (last completion). */
    double spanMs = 0.0;
    /** Shared-channel occupancy. */
    double radioBusyMs = 0.0;
    /** radioBusy / span. */
    double radioOccupancy = 0.0;
    size_t transfers = 0;
    /** Aggregator CPU busy time in the event simulation. */
    double aggregatorBusyMs = 0.0;
    /** aggregatorBusy / span. */
    double aggregatorUtilization = 0.0;
    /** Admitted aggregator CPU share (analytic, steady state). */
    double aggregatorCpuShare = 0.0;
    /** Admitted aggregator analytics power. */
    double aggregatorPowerUw = 0.0;
    /** Aggregator battery lifetime under the analytics load. */
    double aggregatorLifetimeHours = 0.0;
    std::vector<FleetNodeReportRow> rows;
    /** Fault-injection outcome; disabled (and absent from both
     *  serializations) when the run had no fault profile. */
    RobustnessReport robustness;
    /** Adaptive-controller outcome, merged over the fleet's nodes;
     *  disabled (and absent) when the controller was off. */
    ControlReport control;
    /** Steady-state serving outcome; disabled (and absent) when the
     *  run served no events. */
    ServingReport serving;
    /** Aggregation-tier outcome of a population-scale run; disabled
     *  (and absent) on the detailed per-cell fleet path. */
    TiersReport tiers;
    /** Chaos-layer outcome of a population-scale run; disabled (and
     *  absent) when no chaos schedule was active. */
    ChaosReport chaos;

    /**
     * Canonical, byte-exact serialization: fixed formats, no
     * locale, no timestamps. Equal reports serialize equally; the
     * determinism tests compare these bytes across worker counts.
     */
    std::string serialize() const;

    /** Human-readable fixed-width summary plus per-node table. */
    void writeText(std::ostream &out) const;
};

} // namespace xpro

#endif // XPRO_CORE_REPORT_HH
