#include "sim/system_sim.hh"

#include <algorithm>
#include <functional>
#include <optional>

#include "common/logging.hh"
#include "core/transfers.hh"
#include "sim/event_queue.hh"
#include "sim/fault_sim.hh"

namespace xpro
{

namespace
{

/** Shared half-duplex radio: serializes transfer requests FIFO. */
class Radio
{
  public:
    Radio(EventQueue &queue, SimResult &result, bool capture_trace)
        : _queue(queue), _result(result),
          _captureTrace(capture_trace)
    {
        _backlog.reserve(16);
    }

    /**
     * Request a transfer of @p cost; @p on_delivered fires when the
     * payload lands on the other end.
     */
    void
    request(const TransferCost &cost, EventQueue::Handler on_delivered,
            const std::string &what)
    {
        occupy(cost.airTime, what, std::move(on_delivered));
    }

    /**
     * Occupy the channel for @p air (one ARQ attempt, or one
     * expectation-folded transfer); @p on_done fires when the
     * occupation ends.
     */
    void
    occupy(Time air, const std::string &what,
           EventQueue::Handler on_done)
    {
        _backlog.push_back(
            {air, std::move(on_done), _captureTrace ? what : ""});
        if (!_busy)
            startNext();
    }

  private:
    struct Pending
    {
        Time air;
        EventQueue::Handler onDone;
        std::string what;
    };

    void
    startNext()
    {
        if (_backlog.empty()) {
            _busy = false;
            return;
        }
        _busy = true;
        // The in-flight job lives in a member, so the completion
        // callback needs only [this] — small enough for the
        // std::function small-buffer slot, keeping the steady-state
        // loop free of heap allocations. The channel is half-duplex:
        // at most one occupation is in flight at a time.
        _current = std::move(_backlog.front());
        _backlog.erase(_backlog.begin());
        if (_captureTrace) {
            _result.trace.push_back(
                {_queue.now(), "radio start: " + _current.what});
        }
        _result.radioBusy += _current.air;
        ++_result.transfers;
        _queue.scheduleAfter(_current.air, [this]() {
            if (_captureTrace) {
                _result.trace.push_back(
                    {_queue.now(), "radio done: " + _current.what});
            }
            // Move the handler out first: it may request the next
            // transfer, which must land in the backlog, not clobber
            // the job being completed.
            EventQueue::Handler on_done = std::move(_current.onDone);
            on_done();
            startNext();
        });
    }

    EventQueue &_queue;
    SimResult &_result;
    const bool _captureTrace;
    bool _busy = false;
    Pending _current;
    std::vector<Pending> _backlog;
};

/**
 * Simulates a sequence of independent events through one placed
 * engine sharing a single radio. Per-event dataflow state is kept
 * per instance so consecutive segments may overlap in time.
 *
 * With a fault profile, inter-end payloads go through bounded ARQ
 * (sim/fault_sim) instead of the expectation-folded transfer costs,
 * and abandoned packets drive the outage detector / local-fallback
 * machinery. Without one, the legacy path is taken verbatim.
 */
class SystemSimulator
{
  public:
    SystemSimulator(const EngineTopology &topology,
                    const Placement &placement,
                    const WirelessLink &link, size_t events,
                    const FaultProfile *faults = nullptr,
                    Time probe_horizon = Time(),
                    bool capture_trace = true)
        : _topology(topology),
          _placement(placement),
          _link(link),
          _groups(broadcastGroups(topology)),
          _captureTrace(capture_trace),
          _radio(_queue, _result, capture_trace),
          _instances(events),
          _probeHorizon(probe_horizon)
    {
        const DataflowGraph &graph = topology.graph;
        if (faults && faults->enabled)
            _faults.emplace(*faults);
        // Per-instance dataflow counters live in two flat arrays so
        // the setup's allocation count is independent of the event
        // count (the counting-allocator tests compare stream runs of
        // different lengths). sensorFinishAt stays per instance: it
        // exists only on the fault path, which is exempt from the
        // zero-allocation claim.
        const size_t nodes = graph.nodeCount();
        _inputsPending.assign(events * nodes, 0);
        _done.assign(events * nodes, 0);
        for (size_t k = 0; k < events; ++k) {
            for (size_t v = 1; v < nodes; ++v) {
                _inputsPending[k * nodes + v] =
                    graph.predecessors(v).size();
            }
        }
        if (_faults) {
            for (Instance &instance : _instances) {
                instance.sensorFinishAt.assign(nodes, std::nullopt);
            }
        }
        // Placement is fixed for the whole run, so each broadcast
        // group's consumer split (same end as the producer vs the
        // other end) is static: precompute it once instead of
        // building an other-end vector per event. The same-end list
        // preserves the group's consumer order, so deliveries happen
        // in the original sequence.
        _splits.resize(_groups.size());
        for (size_t g = 0; g < _groups.size(); ++g) {
            const BroadcastGroup &group = _groups[g];
            const bool producer_in_sensor =
                _placement.inSensor(group.producer);
            for (size_t v : group.consumers) {
                if (_placement.inSensor(v) == producer_in_sensor)
                    _splits[g].sameEnd.push_back(v);
                else
                    _splits[g].otherEnd.push_back(v);
            }
        }
        // Pre-size the event heap: all stream injections plus a few
        // in-flight completions per event.
        _queue.reserve(events + 32);
    }

    /** Inject event @p k's raw segment at time @p at. */
    void
    inject(size_t k, Time at)
    {
        _queue.schedule(at, [this, k]() {
            completeNode(k, DataflowGraph::sourceId);
        });
    }

    /** Run to completion and harvest results. */
    SimResult
    run()
    {
        _queue.runAll();
        for (size_t k = 0; k < _instances.size(); ++k) {
            const Instance &instance = _instances[k];
            xproAssert(instance.resultAt.has_value(),
                       "event %zu never completed", k);
            // A degraded event legitimately skips cells: the local
            // fallback recomputes them outside the dataflow walk.
            if (instance.degraded)
                continue;
            const size_t nodes = _topology.graph.nodeCount();
            for (size_t v = 1; v < nodes; ++v) {
                xproAssert(_done[k * nodes + v],
                           "cell '%s' never executed for event %zu",
                           _topology.graph.node(v).name.c_str(), k);
            }
        }
        if (_faults) {
            RobustnessReport &stats = _faults->stats();
            stats.bufferedResults = _buffered.size();
            if (_degradedMode)
                stats.outageTimeMs +=
                    (_queue.now() - _outageStart).ms();
            if (stats.replayedResults > 0) {
                stats.meanRecoveryMs =
                    _recoverySum.ms() /
                    static_cast<double>(stats.replayedResults);
            }
            _result.robustness = stats;
        }
        _result.completion = *_instances.back().resultAt;
        return _result;
    }

    /** Completion time of event @p k. */
    Time
    completionOf(size_t k) const
    {
        return *_instances[k].resultAt;
    }

  private:
    struct Instance
    {
        std::optional<Time> resultAt;
        /** Fault path: completion time of every node that started on
         *  the sensor end (source included), for the fallback DP. */
        std::vector<std::optional<Time>> sensorFinishAt;
        /** Fault path: classified via the local fallback. */
        bool degraded = false;
        /** Fault path: when the local classification was produced. */
        std::optional<Time> localResultAt;
    };

    void
    deliverTo(size_t k, size_t v)
    {
        size_t &pending =
            _inputsPending[k * _topology.graph.nodeCount() + v];
        xproAssert(pending > 0, "duplicate delivery to '%s'",
                   _topology.graph.node(v).name.c_str());
        if (--pending == 0)
            completeNode(k, v);
    }

    void
    completeNode(size_t k, size_t u)
    {
        const DataflowGraph &graph = _topology.graph;
        Instance &instance = _instances[k];
        Time exec;
        if (u != DataflowGraph::sourceId) {
            const CellCosts &costs = graph.node(u).costs;
            if (_placement.inSensor(u)) {
                exec = costs.sensorDelay;
                _result.sensorEnergy.compute += costs.sensorEnergy;
                if (_faults)
                    instance.sensorFinishAt[u] = _queue.now() + exec;
            } else {
                exec = costs.aggregatorDelay;
            }
        } else if (_faults) {
            instance.sensorFinishAt[u] = _queue.now();
            // Injected mid-outage: don't even try the link, go
            // straight to the local fallback.
            if (_degradedMode)
                degradeEvent(k);
        }
        // Pack (event, node) into one word so the capture fits the
        // std::function small-buffer slot (16 bytes with `this`):
        // no allocation per node completion.
        const size_t nodes = graph.nodeCount();
        _queue.scheduleAfter(exec, [this, packed = k * nodes + u]() {
            const size_t nodes2 = _topology.graph.nodeCount();
            finishNode(packed / nodes2, packed % nodes2);
        });
    }

    void
    finishNode(size_t k, size_t u)
    {
        const DataflowGraph &graph = _topology.graph;
        Instance &instance = _instances[k];
        _done[k * graph.nodeCount() + u] = 1;
        if (_captureTrace) {
            _result.trace.push_back(
                {_queue.now(), "done " + graph.node(u).name + " #" +
                                   std::to_string(k)});
        }

        // Degraded instances stop propagating: everything not yet
        // started is being recomputed by the local fallback, and the
        // link is considered down for this event.
        if (instance.degraded)
            return;

        if (u == _topology.fusionNode) {
            if (_placement.inSensor(u)) {
                if (_faults)
                    sendResult(k);
                else
                    sendResultLegacy(k);
            } else {
                instance.resultAt = _queue.now();
            }
        }

        for (size_t g = 0; g < _groups.size(); ++g) {
            const BroadcastGroup &group = _groups[g];
            if (group.producer != u)
                continue;
            const GroupSplit &split = _splits[g];
            for (size_t v : split.sameEnd)
                deliverTo(k, v);
            if (!split.otherEnd.empty()) {
                std::string what;
                if (_captureTrace || _faults) {
                    what = graph.node(u).name + " payload #" +
                           std::to_string(k);
                }
                if (_faults) {
                    sendPayload(k, u, group.bits, split.otherEnd,
                                what);
                } else {
                    const TransferCost cost =
                        _link.transfer(group.bits);
                    if (_placement.inSensor(u))
                        _result.sensorEnergy.tx += cost.txEnergy;
                    else
                        _result.sensorEnergy.rx += cost.rxEnergy;
                    // Deliveries read the static split, so the
                    // capture is one packed (event, group) word:
                    // allocation-free like completeNode above.
                    const size_t groups = _groups.size();
                    _radio.request(
                        cost,
                        [this, packed = k * groups + g]() {
                            const size_t groups2 = _groups.size();
                            const size_t k2 = packed / groups2;
                            for (size_t v :
                                 _splits[packed % groups2].otherEnd)
                                deliverTo(k2, v);
                        },
                        what);
                }
            }
        }
    }

    /** Legacy (expectation-folded) result transfer. */
    void
    sendResultLegacy(size_t k)
    {
        const TransferCost cost =
            _link.transfer(EngineTopology::resultBits);
        _result.sensorEnergy.tx += cost.txEnergy;
        std::string what;
        if (_captureTrace)
            what = "result #" + std::to_string(k);
        _radio.request(
            cost,
            [this, k]() { _instances[k].resultAt = _queue.now(); },
            what);
    }

    // ---- Fault-injected path -------------------------------------

    ChannelGrant
    grantFn()
    {
        return [this](Time air, const std::string &what,
                      EventQueue::Handler on_done) {
            _radio.occupy(air, what, std::move(on_done));
        };
    }

    std::function<void(const std::string &)>
    noteFn()
    {
        return [this](const std::string &what) {
            _result.trace.push_back({_queue.now(), what});
        };
    }

    /** Cross-end payload under ARQ. */
    void
    sendPayload(size_t k, size_t u, size_t bits,
                std::vector<size_t> other_end, const std::string &what)
    {
        ArqPacket packet;
        packet.payloadBits = bits;
        packet.senderInSensor = _placement.inSensor(u);
        packet.what = what;
        runArq(_queue, *_faults, _link, std::move(packet),
               &_result.sensorEnergy, grantFn(), noteFn(),
               [this, k, other_end = std::move(other_end)](
                   bool delivered, size_t) {
                   onPacketOutcome(delivered);
                   Instance &instance = _instances[k];
                   if (delivered) {
                       if (!instance.degraded) {
                           for (size_t v : other_end)
                               deliverTo(k, v);
                       }
                   } else {
                       degradeEvent(k);
                   }
               });
    }

    /** In-sensor fusion result under ARQ. */
    void
    sendResult(size_t k)
    {
        ArqPacket packet;
        packet.payloadBits = EngineTopology::resultBits;
        packet.senderInSensor = true;
        packet.what = "result #" + std::to_string(k);
        runArq(_queue, *_faults, _link, std::move(packet),
               &_result.sensorEnergy, grantFn(), noteFn(),
               [this, k](bool delivered, size_t) {
                   onPacketOutcome(delivered);
                   Instance &instance = _instances[k];
                   if (instance.degraded)
                       return;
                   if (delivered)
                       instance.resultAt = _queue.now();
                   else
                       degradeEvent(k);
               });
    }

    /** Replay a buffered local classification after recovery. */
    void
    replayResult(size_t k)
    {
        ArqPacket packet;
        packet.payloadBits = EngineTopology::resultBits;
        packet.senderInSensor = true;
        packet.what = "replay result #" + std::to_string(k);
        runArq(_queue, *_faults, _link, std::move(packet),
               &_result.sensorEnergy, grantFn(), noteFn(),
               [this, k](bool delivered, size_t) {
                   onPacketOutcome(delivered);
                   if (delivered) {
                       ++_faults->stats().replayedResults;
                       _recoverySum += _queue.now() -
                                       *_instances[k].localResultAt;
                   } else {
                       // Back to the shelf until the next recovery.
                       _buffered.push_back(k);
                   }
               });
    }

    /** Outage detector: every final packet outcome lands here. */
    void
    onPacketOutcome(bool delivered)
    {
        RobustnessReport &stats = _faults->stats();
        if (delivered) {
            _abandonStreak = 0;
            if (_degradedMode) {
                _degradedMode = false;
                stats.outageTimeMs +=
                    (_queue.now() - _outageStart).ms();
                _result.trace.push_back({_queue.now(), "outage end"});
                flushBuffered();
            }
            return;
        }
        ++_abandonStreak;
        if (!_degradedMode &&
            _abandonStreak >= _faults->profile().outageThreshold) {
            _degradedMode = true;
            _outageStart = _queue.now();
            ++stats.outages;
            _result.trace.push_back({_queue.now(), "outage start"});
            scheduleProbe();
        }
    }

    void
    flushBuffered()
    {
        std::vector<size_t> pending;
        pending.swap(_buffered);
        for (size_t k : pending)
            replayResult(k);
    }

    void
    scheduleProbe()
    {
        const Time next = _queue.now() +
                          _faults->profile().probeInterval;
        // Probing stops past the horizon so the queue always drains
        // under a permanent outage.
        if (next > _probeHorizon)
            return;
        _queue.schedule(next, [this]() {
            if (!_degradedMode)
                return;
            sendProbe();
        });
    }

    void
    sendProbe()
    {
        ArqPacket packet;
        packet.payloadBits = EngineTopology::resultBits;
        packet.senderInSensor = true;
        packet.what = "probe #" + std::to_string(_probeCount++);
        packet.isProbe = true;
        runArq(_queue, *_faults, _link, std::move(packet),
               &_result.sensorEnergy, grantFn(), noteFn(),
               [this](bool delivered, size_t) {
                   if (!_degradedMode)
                       return;
                   if (delivered)
                       onPacketOutcome(true);
                   else
                       scheduleProbe();
               });
    }

    /** Finish event @p k locally from the current time. */
    void
    degradeEvent(size_t k)
    {
        Instance &instance = _instances[k];
        if (instance.degraded)
            return;
        instance.degraded = true;
        ++_faults->stats().degradedEvents;
        const Time at = _queue.now();
        _result.trace.push_back(
            {at, "fallback #" + std::to_string(k)});
        const LocalFallback plan = computeLocalFallback(
            _topology, _placement, instance.sensorFinishAt, at);
        _result.sensorEnergy.compute += plan.compute;
        _queue.schedule(plan.completion, [this, k]() {
            Instance &instance = _instances[k];
            instance.resultAt = _queue.now();
            instance.localResultAt = _queue.now();
            _result.trace.push_back(
                {_queue.now(),
                 "local result #" + std::to_string(k)});
            if (_degradedMode)
                _buffered.push_back(k);
            else
                replayResult(k);
        });
    }

    /** Static consumer split of one broadcast group under the fixed
     * placement (consumer order preserved within each list). */
    struct GroupSplit
    {
        std::vector<size_t> sameEnd;
        std::vector<size_t> otherEnd;
    };

    const EngineTopology &_topology;
    const Placement &_placement;
    const WirelessLink &_link;
    std::vector<BroadcastGroup> _groups;
    std::vector<GroupSplit> _splits;
    const bool _captureTrace;
    EventQueue _queue;
    SimResult _result;
    Radio _radio;
    std::vector<Instance> _instances;
    /** Flat per-(event, node) dataflow state: pending predecessor
     * counts and executed flags, indexed k * nodeCount + v. */
    std::vector<size_t> _inputsPending;
    std::vector<uint8_t> _done;

    // Fault-injection state (unused on the legacy path).
    std::optional<FaultState> _faults;
    Time _probeHorizon;
    size_t _abandonStreak = 0;
    bool _degradedMode = false;
    Time _outageStart;
    std::vector<size_t> _buffered;
    Time _recoverySum;
    size_t _probeCount = 0;
};

StreamResult
runStream(const EngineTopology &topology, const Placement &placement,
          const WirelessLink &link, double events_per_second,
          size_t events, const FaultProfile *faults)
{
    xproAssert(events_per_second > 0.0, "event rate must be positive");
    xproAssert(events > 0, "need at least one event");

    const Time period = Time::seconds(1.0 / events_per_second);
    // Recovery probes run at most one period past the last
    // injection; afterwards a still-down link stays down.
    const Time horizon = period * static_cast<double>(events);
    // StreamResult carries no trace, so stream runs skip trace
    // capture entirely: same simulation, same numbers, and the
    // steady-state fault-free event loop stays allocation-free.
    SystemSimulator simulator(topology, placement, link, events,
                              faults, horizon,
                              /*capture_trace=*/false);
    for (size_t k = 0; k < events; ++k)
        simulator.inject(k, period * static_cast<double>(k));
    const SimResult sim = simulator.run();

    StreamResult result;
    result.events = events;
    result.sensorEnergy = sim.sensorEnergy;
    result.robustness = sim.robustness;
    result.degradedEvents = sim.robustness.degradedEvents;
    Time latency_sum;
    for (size_t k = 0; k < events; ++k) {
        const Time latency = simulator.completionOf(k) -
                             period * static_cast<double>(k);
        latency_sum += latency;
        result.worstLatency = std::max(result.worstLatency, latency);
        // Real-time requirement: done before the next segment has
        // been fully acquired.
        if (latency > period)
            ++result.deadlineMisses;
    }
    result.meanLatency =
        Time::seconds(latency_sum.sec() / static_cast<double>(events));
    return result;
}

} // namespace

SimResult
simulateEvent(const EngineTopology &topology,
              const Placement &placement, const WirelessLink &link)
{
    SystemSimulator simulator(topology, placement, link, 1);
    simulator.inject(0, Time());
    return simulator.run();
}

SimResult
simulateEvent(const EngineTopology &topology,
              const Placement &placement, const WirelessLink &link,
              const FaultProfile &faults)
{
    if (!faults.enabled)
        return simulateEvent(topology, placement, link);
    faults.validate();
    SystemSimulator simulator(topology, placement, link, 1, &faults,
                              Time());
    simulator.inject(0, Time());
    return simulator.run();
}

StreamResult
simulateStream(const EngineTopology &topology,
               const Placement &placement, const WirelessLink &link,
               double events_per_second, size_t events)
{
    return runStream(topology, placement, link, events_per_second,
                     events, nullptr);
}

StreamResult
simulateStream(const EngineTopology &topology,
               const Placement &placement, const WirelessLink &link,
               double events_per_second, size_t events,
               const FaultProfile &faults)
{
    if (!faults.enabled) {
        return runStream(topology, placement, link, events_per_second,
                         events, nullptr);
    }
    faults.validate();
    return runStream(topology, placement, link, events_per_second,
                     events, &faults);
}

} // namespace xpro
