/**
 * @file
 * The detailed event simulator: one placed engine per member node,
 * run cell by cell through a shared half-duplex radio.
 *
 * Where the analytic models (core/energy_model, core/delay_model)
 * compute closed-form per-event costs, this simulator actually
 * executes events through the placed engines: cells fire
 * data-driven as their inputs land on their end, and every inter-end
 * payload is serialized over one half-duplex radio channel whose
 * turns a RadioArbiter (sim/radio_sched) hands out. Sensor-side
 * cells of different members run concurrently (every node owns its
 * silicon).
 *
 * A single-node run is a one-member simulation under the FCFS
 * arbiter, which for one node is the FIFO radio. It differs from a
 * fleet run in one modelling choice: its aggregator-side cells run
 * concurrently, as core/delay_model's critical path assumes, where a
 * fleet serializes every member's software cells on the one shared
 * aggregator CPU. Single-node energies agree exactly with the
 * analytic model; the completion time is lower-bounded by the
 * analytic critical path and exceeds it exactly when transfers
 * contend for the radio -- both are tested invariants, and the gap
 * is reported so the bench for Fig. 10 can show radio contention is
 * negligible for these workloads.
 *
 * Every entry point takes an optional fault profile. An enabled one
 * runs the same dataflow over a bursty Gilbert-Elliott channel
 * (wireless/fault): every inter-end payload goes through bounded
 * stop-and-wait ARQ (sim/fault_sim), abandoned packets feed a
 * per-member K-consecutive-failure outage detector, and detected
 * outages degrade the member to sensor-local classification with
 * results buffered for replay on recovery. A disabled profile takes
 * the expectation-folded transfer costs and draws nothing.
 */

#ifndef XPRO_SIM_SYSTEM_SIM_HH
#define XPRO_SIM_SYSTEM_SIM_HH

#include <string>
#include <vector>

#include "core/energy_model.hh"
#include "core/placement.hh"
#include "core/report.hh"
#include "core/topology.hh"
#include "sim/radio_sched.hh"
#include "wireless/fault.hh"
#include "wireless/link.hh"

namespace xpro
{

/** One timestamped trace record. */
struct TraceEntry
{
    Time at;
    std::string what;
};

/** Outcome of simulating one event. */
struct SimResult
{
    /** Time the classification result reaches the aggregator. */
    Time completion;
    /** Sensor energy accumulated by the simulation. */
    SensorEnergyBreakdown sensorEnergy;
    /** Number of radio transfers performed. */
    size_t transfers = 0;
    /** Total radio occupancy. */
    Time radioBusy;
    /** Chronological activity trace. */
    std::vector<TraceEntry> trace;
    /** Fault-injection outcome; disabled for fault-free runs. */
    RobustnessReport robustness;
    /** Adaptive-controller outcome; disabled for static runs
     *  (filled by control/adaptive_sim, never by simulateEvent). */
    ControlReport control;
};

/**
 * Simulate one event end to end, recording its activity trace. A
 * single event sends no recovery probes (there is no later traffic
 * to recover for), so under a permanent outage it completes via
 * local fallback.
 */
SimResult simulateEvent(const EngineTopology &topology,
                        const Placement &placement,
                        const WirelessLink &link,
                        const FaultProfile &faults = {});

/** Outcome of simulating a periodic stream of events. */
struct StreamResult
{
    size_t events = 0;
    /** Events whose result missed the next segment boundary. */
    size_t deadlineMisses = 0;
    /** Worst observed completion latency. */
    Time worstLatency;
    /** Mean completion latency. */
    Time meanLatency;
    /** Sensor energy accumulated over the whole stream. */
    SensorEnergyBreakdown sensorEnergy;
    /** Events classified via the sensor-local fallback. */
    size_t degradedEvents = 0;
    /** Fault-injection outcome; disabled for fault-free runs. */
    RobustnessReport robustness;
    /** Adaptive-controller outcome; disabled for static runs
     *  (filled by control/adaptive_sim, never by simulateStream). */
    ControlReport control;
};

/**
 * Simulate @p events consecutive segments arriving every
 * 1/events_per_second; each event must complete before the next
 * segment is fully acquired to count as real-time. Under an enabled
 * fault profile, recovery probes are sent every
 * FaultProfile::probeInterval while the link is declared down, up to
 * one period past the last injection (so the run always
 * terminates); an event's completion under outage is its
 * sensor-local classification time.
 */
StreamResult simulateStream(const EngineTopology &topology,
                            const Placement &placement,
                            const WirelessLink &link,
                            double events_per_second, size_t events,
                            const FaultProfile &faults = {});

/**
 * Scripted dropout of one fleet member: every packet the node offers
 * (or is offered) during [start, end) is lost, deterministic and
 * independent of the stochastic channel. Models one body walking
 * out of range while the rest of the fleet keeps operating; the
 * bounded ARQ keeps each of the dead node's packets on the channel
 * for a bounded time, so FCFS/TDMA arbitration never stalls on it.
 */
struct NodeOutage
{
    /** Index into the simulated members. */
    size_t node = 0;
    Time start;
    Time end;
};

/** One member of a multi-node simulation. */
struct FleetMember
{
    EngineTopology topology;
    Placement placement;
    /** Event injection rate. */
    double eventsPerSecond = 4.0;
};

/** Event-level outcome for one member. */
struct MemberSimResult
{
    size_t events = 0;
    /** Events finishing after the next segment was acquired. */
    size_t deadlineMisses = 0;
    Time meanLatency;
    Time worstLatency;
    /** Completion time of the member's first event. */
    Time firstCompletion;
    /** Events classified via the node's local fallback (only
     *  nonzero in fault-injected runs). */
    size_t degradedEvents = 0;
    /** The member's sensor energy: in-sensor compute, radio (every
     *  ARQ attempt under faults) and local-fallback recomputation. */
    SensorEnergyBreakdown sensorEnergy;
};

/** Event-level outcome of a multi-node simulation. */
struct FleetSimResult
{
    std::vector<MemberSimResult> members;
    /** Simulated makespan (last completion). */
    Time span;
    /** Shared-channel busy time. */
    Time radioBusy;
    size_t transfers = 0;
    /** Aggregator CPU busy time. */
    Time aggregatorBusy;
    /** Fleet-wide fault-injection outcome; disabled for fault-free
     *  runs. */
    RobustnessReport robustness;
};

/**
 * Simulate @p events_per_node events of every member, all sharing
 * one half-duplex radio (arbitrated by @p arbiter) and one
 * aggregator CPU. Deterministic for a fixed member order.
 *
 * Under @p faults, all members share one Gilbert-Elliott loss chain
 * (draws consumed in deterministic event order) but each runs its
 * own outage detector, local fallback and recovery probes, so one
 * body walking out of range degrades only its own node. Scripted
 * @p node_outages ride on the same ARQ/fallback machinery, with an
 * otherwise loss-free channel when @p faults is disabled.
 */
FleetSimResult simulateFleet(const std::vector<FleetMember> &members,
                             const WirelessLink &link,
                             const RadioArbiter &arbiter,
                             size_t events_per_node,
                             const FaultProfile &faults = {},
                             const std::vector<NodeOutage>
                                 &node_outages = {});

} // namespace xpro

#endif // XPRO_SIM_SYSTEM_SIM_HH
