/**
 * @file
 * Fault-injected transfer machinery of the detailed event simulator
 * (sim/system_sim), single node and fleet alike:
 *
 *  - FaultState: one seeded loss process plus the run's
 *    RobustnessReport counters.
 *  - ArqPacket + startArqAttempt()/finishArqAttempt(): bounded
 *    stop-and-wait ARQ as a plain-data state machine. The simulator
 *    keeps one ArqPacket per packet in flight and drives it with
 *    typed events: each attempt is a separate grant of its
 *    arbitrated shared radio, so the channel is free for other
 *    traffic during ACK timeouts and backoff — which is also what
 *    keeps a dead node from stalling FCFS/TDMA arbitration.
 *  - computeLocalFallback(): the graceful-degradation plan. When a
 *    payload is abandoned (or the link is declared down), the
 *    sensor finishes the event locally: every cell whose output is
 *    not already available in-sensor is recomputed there, and the
 *    completion time is the local critical path from the fallback
 *    instant. Classification therefore continues through outages;
 *    results are buffered and replayed on recovery.
 */

#ifndef XPRO_SIM_FAULT_SIM_HH
#define XPRO_SIM_FAULT_SIM_HH

#include <optional>
#include <span>

#include "core/energy_model.hh"
#include "core/placement.hh"
#include "core/report.hh"
#include "core/topology.hh"
#include "wireless/fault.hh"
#include "wireless/link.hh"

namespace xpro
{

/** Mutable fault-injection state of one simulation run: the seeded
 *  channel chain plus the outcome counters. */
class FaultState
{
  public:
    explicit FaultState(const FaultProfile &profile)
        : _profile(profile), _loss(profile)
    {
        _stats.enabled = profile.enabled;
    }

    const FaultProfile &profile() const { return _profile; }
    LossProcess &loss() { return _loss; }
    RobustnessReport &stats() { return _stats; }
    const RobustnessReport &stats() const { return _stats; }

  private:
    FaultProfile _profile;
    LossProcess _loss;
    RobustnessReport _stats;
};

/**
 * One packet's progress through bounded stop-and-wait ARQ. Plain
 * data: the simulator owns the record and decides what the packet
 * carries and where its outcome goes.
 */
struct ArqPacket
{
    /** Per-attempt frame costs of the packet's payload. */
    AttemptCost cost;
    /** 0-based index of the ongoing attempt. */
    size_t attempt = 0;
    /** Which end transmits the data frame (decides which of the
     *  sensor's tx/rx meters each attempt charges). */
    bool senderInSensor = true;
    /** Recovery probes don't count toward packetsOffered or the
     *  outage detector's abandon streak. */
    bool isProbe = false;
    /** Fate of the ongoing attempt, drawn when it started. */
    bool lost = false;
};

/**
 * Offer a packet of @p payload_bits (the link adds the protocol
 * header) to bounded ARQ: counts it as offered (or as a probe) and
 * returns its record, ready for the first attempt.
 */
ArqPacket openArqPacket(FaultState &faults, const WirelessLink &link,
                        size_t payload_bits, bool sender_in_sensor,
                        bool is_probe);

/**
 * Start @p packet's next attempt at @p now and return the channel
 * time it occupies (data only when lost, data + ACK when delivered).
 *
 * The packet's fate is drawn here: lost when @p forced_loss (a
 * scripted outage, which consumes no draw), else from the
 * Gilbert-Elliott chain. The attempt's energies are charged to
 * @p sensor according to the sending end: data frame every attempt,
 * ACK frame only on success.
 */
Time startArqAttempt(FaultState &faults, ArqPacket &packet, Time now,
                     bool forced_loss, SensorEnergyBreakdown &sensor);

/** What an attempt's end means for its packet. */
enum class ArqOutcome
{
    Delivered,
    /** Lost; the next attempt starts after the returned backoff. */
    Retry,
    /** Lost after maxRetries failed retries. */
    Abandoned,
};

/**
 * Close @p packet's ongoing attempt once its channel time has ended
 * and fold the outcome into the counters. On Retry the packet moves
 * to its next attempt, which starts @p backoff later (per the
 * profile's ArqConfig).
 */
ArqOutcome finishArqAttempt(FaultState &faults, ArqPacket &packet,
                            Time *backoff);

/** The local-fallback plan for one partially executed event. */
struct LocalFallback
{
    /** When the locally computed classification is ready. */
    Time completion;
    /** Extra sensor compute energy of the recomputed cells. */
    Energy compute;
    /** Cells recomputed locally (the rest already ran in-sensor). */
    size_t recomputedCells = 0;
};

/**
 * Plan finishing event locally from time @p at.
 *
 * @p sensor_finish_at[v] is set iff cell v already started (or
 * finished) on the *sensor* end, holding its completion time; those
 * outputs are reused. Every other cell — never started, or started
 * on the now-unreachable aggregator — is recomputed in-sensor,
 * data-driven along the topology's DAG. Because each cell is
 * charged at most once per event, a degraded event's compute energy
 * never exceeds the all-in-sensor engine's (a tested invariant).
 */
LocalFallback computeLocalFallback(
    const EngineTopology &topology, const Placement &placement,
    std::span<const std::optional<Time>> sensor_finish_at, Time at);

} // namespace xpro

#endif // XPRO_SIM_FAULT_SIM_HH
