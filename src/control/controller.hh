/**
 * @file
 * The online cross-end controller: closes the loop around the
 * Automatic XPro Generator at run time.
 *
 * The static generator picks one cut for one operating point; the
 * controller re-evaluates that choice at every control-window
 * boundary from three telemetry signals — battery state of charge
 * (platform/ChargeTracker), observed channel cost (mean ARQ attempts
 * per packet from the RobustnessReport) and observed event rate —
 * and re-partitions mid-stream when drift makes a different cut
 * cheaper. Every re-solve re-prices the generator's persistent flow
 * network (setTransferEnergyScale / setEventRate + generate()) rather
 * than building a new one; a controller builds exactly one network
 * for its whole lifetime, which the bench gates on coldSolves() == 1.
 *
 * Adopted re-partitions migrate cells through a bounded-cost
 * handover: the stream drains at the window boundary, each migrating
 * cell's architectural state crosses the link once as a snapshot
 * payload, and one cutover frame commits the switch; the energy and
 * airtime are priced through the same wireless link the payloads
 * use, and charged against the decision (a proposal whose projected
 * dwell-period saving does not cover its handover cost is rejected).
 *
 * Knobs against thrashing: a hysteresis band (relative objective
 * improvement a proposal must beat) and a minimum dwell time between
 * adopted re-partitions. AdaSense-style duty-cycle levels are a
 * third decision variable: battery bands map the state of charge to
 * a fraction of offered events actually analyzed, trading detection
 * latency for lifetime as the battery empties (monotone in time, so
 * duty levels need no hysteresis of their own).
 *
 * All decisions are pure functions of telemetry and configuration —
 * no clocks, no host randomness — so decision traces are
 * byte-identical run-to-run and at any worker count.
 */

#ifndef XPRO_CONTROL_CONTROLLER_HH
#define XPRO_CONTROL_CONTROLLER_HH

#include <map>
#include <utility>
#include <vector>

#include "core/partitioner.hh"
#include "core/report.hh"

namespace xpro
{

/** Tuning of the runtime-adaptive controller. */
struct ControlConfig
{
    /** Master switch; false = the static design runs untouched. */
    bool enabled = true;
    /** Control-window length (decision cadence). */
    Time repartitionPeriod = Time::seconds(60.0);
    /**
     * Hysteresis band: the relative objective improvement a
     * proposed cut must exceed before it can be adopted
     * (0.05 = 5%). Proposals inside the band hold the current
     * placement, so a channel oscillating around the break-even
     * point cannot make the controller thrash.
     */
    double hysteresis = 0.05;
    /** Minimum time between adopted re-partitions. */
    Time minDwell = Time::seconds(120.0);
    /**
     * Duty-cycle levels: fraction of offered events analyzed, level
     * 0 first. Strictly positive, non-increasing.
     */
    std::vector<double> dutyLevels = {1.0, 0.6, 0.35};
    /**
     * Quantization step for the observed channel scale (mean ARQ
     * attempts per packet). Telemetry is rounded to this grid
     * before it prices the flow network, which makes decisions
     * robust to per-window sampling noise and bounds the number of
     * distinct operating points the controller ever solves for
     * (repeats hit the proposal cache instead of re-sweeping).
     */
    double scaleQuantum = 0.05;
    /**
     * Retention cap on the decision trace: counters in the report
     * always cover every window, but only the first this many
     * decisions are kept (ControlReport::droppedDecisions counts
     * the rest). Lifetime runs replay the trace for simulated
     * weeks; an unbounded trace would dominate memory. 0 = keep
     * everything.
     */
    size_t decisionTraceCap = 4096;
    /**
     * State-of-charge thresholds activating the deeper levels:
     * level i (i >= 1) is active while soc < socThresholds[i - 1].
     * Size must be dutyLevels.size() - 1, strictly decreasing.
     */
    std::vector<double> socThresholds = {0.35, 0.15};

    /** Panics on nonsense parameters. */
    void validate() const;
};

/** What the controller observed over the closing control window. */
struct ControlTelemetry
{
    /** Simulated time of the window boundary. */
    Time at;
    /** Mean ARQ attempts per offered packet (1 = nominal). */
    double meanAttemptsPerPacket = 1.0;
    /** Offered event rate observed over the window. */
    double eventsPerSecond = 0.0;
    /** Battery state of charge in [0, 1] at the boundary. */
    double stateOfCharge = 1.0;
};

/** Energy/airtime bill of one adopted handover. */
struct HandoverCost
{
    size_t movedCells = 0;
    /** Snapshot + cutover energy drawn from the sensor battery. */
    Energy sensorEnergy;
    /** Link occupancy of the migration. */
    Time airTime;
};

/** The online re-partitioning controller of one sensor node. */
class CrossEndController
{
  public:
    /**
     * Designs the initial placement at the nominal operating point,
     * building the generator's flow network; every later decision
     * re-solves on that network.
     */
    CrossEndController(const EngineTopology &topology,
                       const WirelessLink &link,
                       const ControlConfig &config,
                       const GeneratorOptions &options = {});

    /** The placement currently in force. */
    const Placement &placement() const { return _placement; }

    /** Active duty-cycle level / fraction of events analyzed. */
    size_t dutyLevel() const { return _dutyLevel; }
    double dutyFactor() const
    {
        return _config.dutyLevels[_dutyLevel];
    }

    /**
     * Close a control window: evaluate @p telemetry, maybe adopt a
     * new placement and duty level. The returned decision is also
     * appended to the report's trace. Call in simulated-time order.
     */
    ControlDecision observe(const ControlTelemetry &telemetry);

    /**
     * Price the migration from the active placement to @p next:
     * every moved cell's output register crosses the link once as a
     * snapshot payload, plus one cutover frame. The drain phase is
     * free here because decisions land on window boundaries, where
     * the pipeline is already empty.
     */
    HandoverCost handoverCost(const Placement &next) const;

    /** Decision trace so far (solve counters refreshed). */
    ControlReport report() const;

    /** The controller's generator (solve-counter inspection). */
    const XProGenerator &generator() const { return _generator; }

  private:
    size_t dutyLevelFor(double soc) const;

    const EngineTopology &_topology;
    const WirelessLink &_link;
    ControlConfig _config;
    XProGenerator _generator;
    Placement _placement;
    /** A solved operating point: the best cut and its price. */
    struct CachedProposal
    {
        Placement placement;
        Energy objective;
    };
    /** Proposals per (quantized scale, effective rate)
     *  operating point: repeats skip the generator sweep. */
    std::map<std::pair<double, double>, CachedProposal> _proposals;
    /** Price of the *active* placement per operating point;
     *  invalidated whenever a re-partition is adopted. */
    std::map<std::pair<double, double>, Energy> _currentObjectives;
    size_t _dutyLevel = 0;
    bool _everRepartitioned = false;
    Time _lastRepartition;
    ControlReport _report;
};

} // namespace xpro

#endif // XPRO_CONTROL_CONTROLLER_HH
