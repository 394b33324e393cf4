/**
 * @file
 * Fault-injected transfer machinery of the detailed event simulator
 * (sim/system_sim), single node and fleet alike:
 *
 *  - FaultState: one seeded loss process plus the run's
 *    RobustnessReport counters.
 *  - runArq(): drives one packet through bounded stop-and-wait ARQ
 *    on top of the simulator's channel grant (its arbitrated
 *    shared radio). Each attempt is a separate channel grant, so the
 *    channel is free for other traffic during ACK timeouts and
 *    backoff — which is also what keeps a dead node from stalling
 *    FCFS/TDMA arbitration.
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

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/energy_model.hh"
#include "core/placement.hh"
#include "core/report.hh"
#include "core/topology.hh"
#include "sim/event_queue.hh"
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

/** One packet submitted to the ARQ machine. */
struct ArqPacket
{
    /** Payload bits; the link adds the protocol header. */
    size_t payloadBits = 0;
    /** Which end transmits the data frame (decides which of the
     *  sensor's tx/rx meters each attempt charges). */
    bool senderInSensor = true;
    /** Trace tag, e.g. "svm payload #0". */
    std::string what;
    /** Recovery probes don't count toward packetsOffered or the
     *  outage detector's abandon streak. */
    bool isProbe = false;
    /** Optional per-packet loss override evaluated before the
     *  shared loss process (e.g. a scripted dead fleet node). A
     *  forced loss consumes no stochastic draw. */
    std::function<bool(Time)> forceLost;
};

/**
 * How the simulator grants its arbitrated channel to one
 * transmission attempt: occupy the channel for @p air (labelled
 * @p what in the trace), then call @p on_done.
 */
using ChannelGrant =
    std::function<void(Time air, const std::string &what,
                       EventQueue::Handler on_done)>;

/** Fires exactly once per packet with the final outcome. */
using ArqDone = std::function<void(bool delivered, size_t attempts)>;

/**
 * Drive @p packet through bounded stop-and-wait ARQ.
 *
 * Per attempt: the packet's fate is drawn from @p faults (scripted
 * outages, then the Gilbert-Elliott chain), the per-attempt energies
 * are charged to @p sensor (if non-null) according to the sending
 * end — data frame every attempt, ACK frame only on success — and
 * the channel is acquired through @p grant for the attempt's air
 * time (data only when lost, data + ACK when delivered). A lost
 * attempt backs off per the profile's ArqConfig before retrying;
 * after maxRetries failed retries the packet is abandoned.
 *
 * @param note Optional trace hook for "retry ..."/"drop ..."
 *        markers (may be null).
 */
void runArq(EventQueue &queue, FaultState &faults,
            const WirelessLink &link, ArqPacket packet,
            SensorEnergyBreakdown *sensor, ChannelGrant grant,
            std::function<void(const std::string &)> note,
            ArqDone done);

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
    const std::vector<std::optional<Time>> &sensor_finish_at,
    Time at);

} // namespace xpro

#endif // XPRO_SIM_FAULT_SIM_HH
