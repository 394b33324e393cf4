#include "sim/system_sim.hh"

#include <algorithm>
#include <cstring>
#include <functional>
#include <optional>

#include "common/arena.hh"
#include "common/logging.hh"
#include "core/transfers.hh"
#include "sim/event_queue.hh"
#include "sim/fault_sim.hh"

namespace xpro
{

namespace
{

/** One member's placed engine, borrowed from the caller. */
struct MemberSpec
{
    const EngineTopology *topology = nullptr;
    const Placement *placement = nullptr;
    double eventsPerSecond = 0.0;
};

/**
 * What a single-node run and a fleet run do differently. The entry
 * points set it; it is not part of the public API.
 */
struct SimOptions
{
    /** Serialize every member's aggregator-side cells on one shared
     *  CPU (a fleet). Off for a single node, whose back-end cells run
     *  concurrently as core/delay_model's critical path assumes. */
    bool sharedCpu = true;
    /** Send recovery probes while a member's link is declared down,
     *  up to one period past its last injection. Off for a single
     *  event: there is no later traffic to recover for. */
    bool probes = true;
    /** Optional chronological activity trace. */
    std::vector<TraceEntry> *trace = nullptr;
};

/**
 * The shared half-duplex channel: queues transfer requests from all
 * members and serves them one at a time under the arbiter's policy.
 */
class SharedRadio
{
  public:
    SharedRadio(EventQueue &queue, const RadioArbiter &arbiter,
                FleetSimResult &result, std::vector<TraceEntry> *trace)
        : _queue(queue), _arbiter(arbiter), _result(result),
          _trace(trace)
    {
        // Warmup growth only: once every member has queued at least
        // once, the steady-state loop reuses this capacity.
        _pending.reserve(16);
        _requests.reserve(16);
    }

    /**
     * Queue one channel occupation (a single ARQ attempt, or one
     * expectation-folded transfer) of length @p air for @p node;
     * @p on_done fires when it ends. @p what labels the trace.
     */
    void
    occupy(size_t node, Time air, const std::string &what,
           EventQueue::Handler on_done)
    {
        Pending pending;
        pending.request = {node, _nextSequence++, _queue.now(), air};
        pending.onDelivered = std::move(on_done);
        if (_trace)
            pending.what = what;
        _pending.push_back(std::move(pending));
        arbitrate();
    }

  private:
    struct Pending
    {
        RadioRequest request;
        EventQueue::Handler onDelivered;
        std::string what;
    };

    void
    arbitrate()
    {
        if (_busy || _pending.empty())
            return;

        // Member scratch, not a local: the capacity survives across
        // arbitrations so the steady-state loop never allocates.
        _requests.clear();
        for (const Pending &pending : _pending)
            _requests.push_back(pending.request);

        Time start;
        const size_t chosen =
            _arbiter.grant(_requests, _queue.now(), &start);
        xproAssert(chosen < _pending.size(),
                   "arbiter chose request %zu of %zu", chosen,
                   _pending.size());
        xproAssert(start >= _queue.now(),
                   "arbiter granted a start in the past");

        if (start > _queue.now()) {
            // The winner may not start yet (e.g. its TDMA slot is
            // ahead). Re-arbitrate at that time; a request arriving
            // in between triggers its own arbitration, so an armed
            // wakeup is only kept if it is still the earliest.
            if (!_wakeupArmed || start < _wakeupAt) {
                _wakeupArmed = true;
                _wakeupAt = start;
                _queue.schedule(start, [this, start]() {
                    if (_wakeupArmed && _wakeupAt == start)
                        _wakeupArmed = false;
                    arbitrate();
                });
            }
            return;
        }

        _busy = true;
        _current = std::move(_pending[chosen]);
        _pending.erase(_pending.begin() +
                       static_cast<ptrdiff_t>(chosen));
        if (_trace) {
            _trace->push_back(
                {_queue.now(), "radio start: " + _current.what});
        }
        _result.radioBusy += _current.request.airTime;
        ++_result.transfers;
        // The in-flight job lives in _current (there is at most one:
        // _busy gates arbitration) so the completion capture is just
        // `this` — small enough for std::function's inline storage,
        // keeping the steady-state loop allocation-free. Move the
        // job to a local first: the handler may queue new transfers.
        _queue.scheduleAfter(_current.request.airTime, [this]() {
            Pending job = std::move(_current);
            if (_trace) {
                _trace->push_back(
                    {_queue.now(), "radio done: " + job.what});
            }
            job.onDelivered();
            _busy = false;
            arbitrate();
        });
    }

    EventQueue &_queue;
    const RadioArbiter &_arbiter;
    FleetSimResult &_result;
    std::vector<TraceEntry> *_trace;
    bool _busy = false;
    bool _wakeupArmed = false;
    Time _wakeupAt;
    std::vector<Pending> _pending;
    std::vector<RadioRequest> _requests; // arbitrate() scratch
    Pending _current;                    // the one in-flight job
    uint64_t _nextSequence = 0;
};

/**
 * The aggregator's single CPU: software cells of all members
 * execute one at a time, first come first served.
 */
class CpuServer
{
  public:
    CpuServer(EventQueue &queue, FleetSimResult &result)
        : _queue(queue), _result(result)
    {
        _backlog.reserve(16);
    }

    /** Run a software job of length @p exec; @p done fires at its
     *  completion. */
    void
    submit(Time exec, EventQueue::Handler done)
    {
        _backlog.push_back({exec, std::move(done)});
        if (!_busy)
            startNext();
    }

  private:
    struct Job
    {
        Time exec;
        EventQueue::Handler done;
    };

    void
    startNext()
    {
        if (_backlog.empty()) {
            _busy = false;
            return;
        }
        _busy = true;
        _current = std::move(_backlog.front());
        _backlog.erase(_backlog.begin());
        _result.aggregatorBusy += _current.exec;
        // As in SharedRadio: the running job lives in _current so the
        // completion capture stays within std::function's inline
        // storage (no heap). Move out before invoking — the handler
        // may submit new jobs.
        _queue.scheduleAfter(_current.exec, [this]() {
            Job job = std::move(_current);
            job.done();
            startNext();
        });
    }

    EventQueue &_queue;
    FleetSimResult &_result;
    bool _busy = false;
    std::vector<Job> _backlog;
    Job _current; // the one running job
};

/**
 * Event-level simulation of one or more members. Per-member state
 * holds each event's dataflow counters; the radio (and, for a
 * fleet, the aggregator CPU) is shared. Consecutive events of one
 * member may overlap in time.
 *
 * With a fault profile, inter-end payloads go through bounded ARQ
 * (sim/fault_sim) instead of the expectation-folded transfer costs.
 * All members share one Gilbert-Elliott loss chain (it is one
 * physical channel) but each runs its own outage detector, local
 * fallback and recovery probes.
 */
class FleetSimulator
{
  public:
    FleetSimulator(const std::vector<MemberSpec> &members,
                   const WirelessLink &link,
                   const RadioArbiter &arbiter,
                   size_t events_per_node, const FaultProfile *faults,
                   const std::vector<NodeOutage> &node_outages,
                   const SimOptions &options)
        : _link(link),
          _eventsPerNode(events_per_node),
          _trace(options.trace),
          _nodeOutages(node_outages),
          _radio(_queue, arbiter, _result, options.trace)
    {
        xproAssert(!members.empty(),
                   "simulation needs at least one member");
        xproAssert(events_per_node > 0, "need at least one event");

        if (options.sharedCpu)
            _cpu.emplace(_queue, _result);
        if (faults)
            _faults.emplace(*faults);
        xproAssert(_nodeOutages.empty() || _faults.has_value(),
                   "node outages need the fault machinery enabled");
        for (const NodeOutage &outage : _nodeOutages) {
            xproAssert(outage.node < members.size(),
                       "outage for node %zu of a %zu-node fleet",
                       outage.node, members.size());
        }

        _result.members.resize(members.size());
        _members.reserve(members.size());
        for (const MemberSpec &spec : members) {
            xproAssert(spec.eventsPerSecond > 0.0,
                       "event rate must be positive");
            Member state;
            state.spec = spec;
            state.probeHorizon =
                options.probes
                    ? Time::seconds(1.0 / spec.eventsPerSecond) *
                          static_cast<double>(events_per_node)
                    : Time();
            state.groups = broadcastGroups(*spec.topology);
            // Same-end / other-end consumer splits are static under
            // a fixed placement: computing them once (in consumer
            // order) keeps finishNode free of per-event vectors.
            state.splits.reserve(state.groups.size());
            for (const BroadcastGroup &group : state.groups) {
                GroupSplit split;
                for (size_t v : group.consumers) {
                    if (spec.placement->inSensor(v) ==
                        spec.placement->inSensor(group.producer))
                        split.sameEnd.push_back(v);
                    else
                        split.otherEnd.push_back(v);
                }
                state.splits.push_back(std::move(split));
            }
            state.instances.resize(events_per_node);
            const DataflowGraph &graph = spec.topology->graph;
            // Flat per-(event, node) dataflow state: the setup's
            // allocation count stays independent of events_per_node
            // (checked by the counting-allocator tests).
            // sensorFinishAt is per instance but fault-path-only,
            // which is exempt from the zero-allocation claim.
            const size_t nodes = graph.nodeCount();
            state.graphNodes = nodes;
            // Struct-of-arrays: the per-(event, node) counters of
            // all members share one arena, so a member's dataflow
            // state costs two pointers instead of two heap vectors
            // and the slab count stays independent of both fleet
            // size and events_per_node (until the arena block size
            // is exceeded, at which point the arena grows in fixed
            // blocks — still a constant number of heap allocations
            // for a fixed workload shape).
            const size_t cells = events_per_node * nodes;
            state.inputsPending = _stateArena.alloc<size_t>(cells);
            state.done = _stateArena.alloc<uint8_t>(cells);
            std::memset(state.inputsPending, 0,
                        cells * sizeof(size_t));
            std::memset(state.done, 0, cells);
            for (size_t k = 0; k < events_per_node; ++k) {
                for (size_t v = 1; v < nodes; ++v) {
                    state.inputsPending[k * nodes + v] =
                        graph.predecessors(v).size();
                }
            }
            if (_faults) {
                for (Instance &instance : state.instances) {
                    instance.sensorFinishAt.assign(nodes,
                                                   std::nullopt);
                }
            }
            _maxGraphNodes = std::max(_maxGraphNodes, nodes);
            _maxGroups =
                std::max(_maxGroups, state.groups.size());
            _members.push_back(std::move(state));
        }
        // Strides for packing (member, event, node/group) into one
        // word so completion captures fit std::function's inline
        // storage (the steady-state loop must not allocate).
        _maxGraphNodes = std::max<size_t>(_maxGraphNodes, 1);
        _maxGroups = std::max<size_t>(_maxGroups, 1);
        _queue.reserve(members.size() * events_per_node + 64);
    }

    FleetSimResult
    run()
    {
        for (size_t m = 0; m < _members.size(); ++m) {
            const Time period = Time::seconds(
                1.0 / _members[m].spec.eventsPerSecond);
            for (size_t k = 0; k < _eventsPerNode; ++k) {
                _queue.schedule(
                    period * static_cast<double>(k),
                    [this, packed = m * _eventsPerNode + k]() {
                        completeNode(packed / _eventsPerNode,
                                     packed % _eventsPerNode,
                                     DataflowGraph::sourceId);
                    });
            }
        }
        // Runaway-loop guard sized from the offered work: each event
        // completes every cell once and moves every payload group
        // through a bounded number of ARQ attempts, so a sane run
        // stays far below the cap and a looping one still trips it.
        const size_t per_event = 64 * (_maxGraphNodes + _maxGroups);
        _queue.runAll(std::max<size_t>(
            4000000, _members.size() * _eventsPerNode * per_event));

        if (_faults) {
            RobustnessReport &stats = _faults->stats();
            for (const Member &member : _members) {
                stats.bufferedResults += member.buffered.size();
                if (member.degradedMode) {
                    stats.outageTimeMs +=
                        (_queue.now() - member.outageStart).ms();
                }
            }
            if (stats.replayedResults > 0) {
                stats.meanRecoveryMs =
                    _recoverySum.ms() /
                    static_cast<double>(stats.replayedResults);
            }
            _result.robustness = stats;
        }

        for (size_t m = 0; m < _members.size(); ++m) {
            const Member &member = _members[m];
            const Time period =
                Time::seconds(1.0 / member.spec.eventsPerSecond);
            MemberSimResult &out = _result.members[m];
            out.events = _eventsPerNode;
            out.degradedEvents = member.degradedEvents;
            Time latency_sum;
            for (size_t k = 0; k < _eventsPerNode; ++k) {
                const Instance &instance = member.instances[k];
                xproAssert(instance.resultAt.has_value(),
                           "member %zu event %zu never completed",
                           m, k);
                // A degraded event legitimately skips cells: the
                // local fallback recomputes them outside the
                // dataflow walk.
                if (!instance.degraded)
                    checkExecuted(m, k);
                const Time completion = *instance.resultAt;
                const Time latency =
                    completion - period * static_cast<double>(k);
                latency_sum += latency;
                out.worstLatency =
                    std::max(out.worstLatency, latency);
                // Real-time requirement: done before the next
                // segment has been fully acquired.
                if (latency > period)
                    ++out.deadlineMisses;
                if (k == 0)
                    out.firstCompletion = completion;
                _result.span = std::max(_result.span, completion);
            }
            out.meanLatency = Time::seconds(
                latency_sum.sec() /
                static_cast<double>(_eventsPerNode));
        }
        return std::move(_result);
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

    /** A broadcast group's consumers split by end relative to the
     *  producer; static under a fixed placement. */
    struct GroupSplit
    {
        std::vector<size_t> sameEnd;
        std::vector<size_t> otherEnd;
    };

    struct Member
    {
        MemberSpec spec;
        /** Recovery probes stop past this time, so the queue always
         *  drains under a permanent outage. */
        Time probeHorizon;
        std::vector<BroadcastGroup> groups;
        /** splits[g] belongs to groups[g]. */
        std::vector<GroupSplit> splits;
        std::vector<Instance> instances;
        /** Flat per-(event, node) dataflow state, indexed
         * k * graphNodes + v; arena-backed slabs shared by every
         * member (owned by FleetSimulator::_stateArena). */
        size_t graphNodes = 0;
        size_t *inputsPending = nullptr;
        uint8_t *done = nullptr;
        // Per-node outage detector state (fault path only).
        size_t abandonStreak = 0;
        bool degradedMode = false;
        Time outageStart;
        std::vector<size_t> buffered;
        size_t degradedEvents = 0;
        size_t probeCount = 0;
    };

    /** Member @p m's sensor-energy meter. */
    SensorEnergyBreakdown &
    meter(size_t m)
    {
        return _result.members[m].sensorEnergy;
    }

    void
    note(std::string what)
    {
        _trace->push_back({_queue.now(), std::move(what)});
    }

    void
    checkExecuted(size_t m, size_t k) const
    {
        const Member &member = _members[m];
        for (size_t v = 1; v < member.graphNodes; ++v) {
            xproAssert(member.done[k * member.graphNodes + v],
                       "cell '%s' of member %zu never executed for "
                       "event %zu",
                       member.spec.topology->graph.node(v).name.c_str(),
                       m, k);
        }
    }

    void
    deliverTo(size_t m, size_t k, size_t v)
    {
        Member &member = _members[m];
        size_t &pending =
            member.inputsPending[k * member.graphNodes + v];
        xproAssert(pending > 0, "duplicate delivery to node %zu",
                   v);
        if (--pending == 0)
            completeNode(m, k, v);
    }

    void
    completeNode(size_t m, size_t k, size_t u)
    {
        Member &member = _members[m];
        // (m, k, u) packed into one word: the capture then fits
        // std::function's inline buffer, so scheduling a completion
        // never touches the heap in the steady-state loop.
        const auto finish =
            [this, packed = (m * _eventsPerNode + k) *
                                _maxGraphNodes +
                            u]() {
                const size_t rest = packed / _maxGraphNodes;
                finishNode(rest / _eventsPerNode,
                           rest % _eventsPerNode,
                           packed % _maxGraphNodes);
            };
        if (u == DataflowGraph::sourceId) {
            if (_faults) {
                Instance &instance = member.instances[k];
                instance.sensorFinishAt[u] = _queue.now();
                // Injected mid-outage: straight to local fallback.
                if (member.degradedMode)
                    degradeEvent(m, k);
            }
            _queue.scheduleAfter(Time(), finish);
            return;
        }
        const CellCosts &costs =
            member.spec.topology->graph.node(u).costs;
        if (member.spec.placement->inSensor(u)) {
            // The member's own hardware: runs concurrently with
            // every other node's cells.
            meter(m).compute += costs.sensorEnergy;
            if (_faults) {
                member.instances[k].sensorFinishAt[u] =
                    _queue.now() + costs.sensorDelay;
            }
            _queue.scheduleAfter(costs.sensorDelay, finish);
        } else if (_cpu) {
            // Software on the one shared aggregator core.
            _cpu->submit(costs.aggregatorDelay, finish);
        } else {
            _queue.scheduleAfter(costs.aggregatorDelay, finish);
        }
    }

    void
    finishNode(size_t m, size_t k, size_t u)
    {
        Member &member = _members[m];
        const EngineTopology &topology = *member.spec.topology;
        const Placement &placement = *member.spec.placement;
        member.done[k * member.graphNodes + u] = 1;
        if (_trace) {
            note("done " + topology.graph.node(u).name + " #" +
                 std::to_string(k));
        }

        // Degraded instances stop propagating: everything not yet
        // started is being recomputed by the local fallback.
        if (member.instances[k].degraded)
            return;

        if (u == topology.fusionNode) {
            if (placement.inSensor(u)) {
                if (_faults) {
                    sendResult(m, k);
                } else {
                    const TransferCost cost =
                        _link.transfer(EngineTopology::resultBits);
                    meter(m).tx += cost.txEnergy;
                    _radio.occupy(
                        m, cost.airTime,
                        _trace ? "result #" + std::to_string(k)
                               : std::string(),
                        [this,
                         packed = m * _eventsPerNode + k]() {
                            _members[packed / _eventsPerNode]
                                .instances[packed % _eventsPerNode]
                                .resultAt = _queue.now();
                        });
                }
            } else {
                member.instances[k].resultAt = _queue.now();
            }
        }

        for (size_t g = 0; g < member.groups.size(); ++g) {
            const BroadcastGroup &group = member.groups[g];
            if (group.producer != u)
                continue;
            const GroupSplit &split = member.splits[g];
            for (size_t v : split.sameEnd)
                deliverTo(m, k, v);
            if (split.otherEnd.empty())
                continue;
            std::string what;
            if (_trace || _faults) {
                what = topology.graph.node(u).name + " payload #" +
                       std::to_string(k);
            }
            if (_faults) {
                sendPayload(m, k, u, group.bits, split.otherEnd,
                            std::move(what));
                continue;
            }
            const TransferCost cost = _link.transfer(group.bits);
            if (placement.inSensor(u))
                meter(m).tx += cost.txEnergy;
            else
                meter(m).rx += cost.rxEnergy;
            // The consumer list on the far end is static
            // (_members[m].splits[g]), so capturing the packed
            // (m, k, g) index is enough — no per-event vector copy,
            // no heap.
            _radio.occupy(
                m, cost.airTime, what,
                [this,
                 packed = (m * _eventsPerNode + k) * _maxGroups +
                          g]() {
                    const size_t rest = packed / _maxGroups;
                    const size_t dm = rest / _eventsPerNode;
                    const size_t dk = rest % _eventsPerNode;
                    for (size_t v :
                         _members[dm].splits[packed % _maxGroups]
                             .otherEnd)
                        deliverTo(dm, dk, v);
                });
        }
    }

    // ---- Fault-injected path -------------------------------------

    /** True while member @p m is inside a scripted dropout. */
    bool
    nodeInOutage(size_t m, Time at) const
    {
        for (const NodeOutage &outage : _nodeOutages) {
            if (outage.node == m && at >= outage.start &&
                at < outage.end)
                return true;
        }
        return false;
    }

    /** Drive one of member @p m's packets through ARQ. */
    void
    sendArq(size_t m, size_t payload_bits, bool sender_in_sensor,
            std::string what, bool is_probe, ArqDone done)
    {
        ArqPacket packet;
        packet.payloadBits = payload_bits;
        packet.senderInSensor = sender_in_sensor;
        packet.what = std::move(what);
        packet.isProbe = is_probe;
        if (!_nodeOutages.empty()) {
            packet.forceLost = [this, m](Time at) {
                return nodeInOutage(m, at);
            };
        }
        ChannelGrant grant = [this, m](Time air,
                                       const std::string &label,
                                       EventQueue::Handler on_done) {
            _radio.occupy(m, air, label, std::move(on_done));
        };
        std::function<void(const std::string &)> arq_note;
        if (_trace)
            arq_note = [this](const std::string &line) { note(line); };
        runArq(_queue, *_faults, _link, std::move(packet), &meter(m),
               std::move(grant), std::move(arq_note), std::move(done));
    }

    /** Cross-end payload under ARQ. */
    void
    sendPayload(size_t m, size_t k, size_t u, size_t bits,
                std::vector<size_t> other_end, std::string what)
    {
        sendArq(m, bits, _members[m].spec.placement->inSensor(u),
                std::move(what), false,
                [this, m, k, other_end = std::move(other_end)](
                    bool delivered, size_t) {
                    onPacketOutcome(m, delivered);
                    Instance &instance = _members[m].instances[k];
                    if (delivered) {
                        if (!instance.degraded) {
                            for (size_t v : other_end)
                                deliverTo(m, k, v);
                        }
                    } else {
                        degradeEvent(m, k);
                    }
                });
    }

    /** In-sensor fusion result under ARQ. */
    void
    sendResult(size_t m, size_t k)
    {
        sendArq(m, EngineTopology::resultBits, true,
                "result #" + std::to_string(k), false,
                [this, m, k](bool delivered, size_t) {
                    onPacketOutcome(m, delivered);
                    Instance &instance = _members[m].instances[k];
                    if (instance.degraded)
                        return;
                    if (delivered)
                        instance.resultAt = _queue.now();
                    else
                        degradeEvent(m, k);
                });
    }

    /** Replay a buffered local classification after recovery. */
    void
    replayResult(size_t m, size_t k)
    {
        sendArq(m, EngineTopology::resultBits, true,
                "replay result #" + std::to_string(k), false,
                [this, m, k](bool delivered, size_t) {
                    onPacketOutcome(m, delivered);
                    if (delivered) {
                        ++_faults->stats().replayedResults;
                        _recoverySum +=
                            _queue.now() -
                            *_members[m].instances[k].localResultAt;
                    } else {
                        // Back to the shelf until the next recovery.
                        _members[m].buffered.push_back(k);
                    }
                });
    }

    /** Member @p m's outage detector: every final packet outcome
     *  lands here. */
    void
    onPacketOutcome(size_t m, bool delivered)
    {
        Member &member = _members[m];
        RobustnessReport &stats = _faults->stats();
        if (delivered) {
            member.abandonStreak = 0;
            if (member.degradedMode) {
                member.degradedMode = false;
                stats.outageTimeMs +=
                    (_queue.now() - member.outageStart).ms();
                if (_trace)
                    note("outage end");
                std::vector<size_t> pending;
                pending.swap(member.buffered);
                for (size_t k : pending)
                    replayResult(m, k);
            }
            return;
        }
        ++member.abandonStreak;
        if (!member.degradedMode &&
            member.abandonStreak >=
                _faults->profile().outageThreshold) {
            member.degradedMode = true;
            member.outageStart = _queue.now();
            ++stats.outages;
            if (_trace)
                note("outage start");
            scheduleProbe(m);
        }
    }

    void
    scheduleProbe(size_t m)
    {
        const Time next =
            _queue.now() + _faults->profile().probeInterval;
        if (next > _members[m].probeHorizon)
            return;
        _queue.schedule(next, [this, m]() {
            if (!_members[m].degradedMode)
                return;
            sendProbe(m);
        });
    }

    void
    sendProbe(size_t m)
    {
        Member &member = _members[m];
        sendArq(m, EngineTopology::resultBits, true,
                "probe #" + std::to_string(member.probeCount++), true,
                [this, m](bool delivered, size_t) {
                    if (!_members[m].degradedMode)
                        return;
                    if (delivered)
                        onPacketOutcome(m, true);
                    else
                        scheduleProbe(m);
                });
    }

    /** Finish member @p m's event @p k locally from now on. */
    void
    degradeEvent(size_t m, size_t k)
    {
        Member &member = _members[m];
        Instance &instance = member.instances[k];
        if (instance.degraded)
            return;
        instance.degraded = true;
        ++member.degradedEvents;
        ++_faults->stats().degradedEvents;
        if (_trace)
            note("fallback #" + std::to_string(k));
        const LocalFallback plan = computeLocalFallback(
            *member.spec.topology, *member.spec.placement,
            instance.sensorFinishAt, _queue.now());
        meter(m).compute += plan.compute;
        _queue.schedule(plan.completion, [this, m, k]() {
            Member &member = _members[m];
            Instance &instance = member.instances[k];
            instance.resultAt = _queue.now();
            instance.localResultAt = _queue.now();
            if (_trace)
                note("local result #" + std::to_string(k));
            if (member.degradedMode)
                member.buffered.push_back(k);
            else
                replayResult(m, k);
        });
    }

    const WirelessLink &_link;
    size_t _eventsPerNode;
    std::vector<TraceEntry> *_trace;
    /** Packing strides for single-word completion captures. */
    size_t _maxGraphNodes = 0;
    size_t _maxGroups = 0;
    EventQueue _queue;
    FleetSimResult _result;
    std::vector<NodeOutage> _nodeOutages;
    SharedRadio _radio;
    /** The shared aggregator CPU; absent for a single node. */
    std::optional<CpuServer> _cpu;
    /** Backs every member's inputsPending/done slabs; declared
     *  before _members so the pointers outlive their users. */
    Arena _stateArena;
    std::vector<Member> _members;

    // Fault-injection state (unused on the fault-free path).
    std::optional<FaultState> _faults;
    Time _recoverySum;
};

/** Run @p members under @p faults and @p node_outages. */
FleetSimResult
runSimulation(const std::vector<MemberSpec> &members,
              const WirelessLink &link, const RadioArbiter &arbiter,
              size_t events_per_node, const FaultProfile &faults,
              const std::vector<NodeOutage> &node_outages,
              const SimOptions &options)
{
    std::optional<FaultProfile> profile;
    if (faults.enabled || !node_outages.empty()) {
        // Scripted dropouts alone ride on the ARQ/fallback machinery
        // with an otherwise loss-free channel.
        profile = faults;
        profile->enabled = true;
        profile->validate();
    }
    FleetSimulator simulator(members, link, arbiter, events_per_node,
                             profile ? &*profile : nullptr,
                             node_outages, options);
    return simulator.run();
}

/** A single node: one member under FCFS (its FIFO radio), with the
 *  aggregator's cells uncontended. */
FleetSimResult
simulateSingleNode(const EngineTopology &topology,
                   const Placement &placement,
                   const WirelessLink &link, double events_per_second,
                   size_t events, const FaultProfile &faults,
                   SimOptions options)
{
    options.sharedCpu = false;
    const FcfsArbiter fcfs;
    return runSimulation({{&topology, &placement, events_per_second}},
                         link, fcfs, events, faults, {}, options);
}

} // namespace

SimResult
simulateEvent(const EngineTopology &topology,
              const Placement &placement, const WirelessLink &link,
              const FaultProfile &faults)
{
    SimResult result;
    SimOptions options;
    options.probes = false;
    options.trace = &result.trace;
    // One event: the rate only sets its (unreported) deadline.
    const FleetSimResult sim = simulateSingleNode(
        topology, placement, link, 1.0, 1, faults, options);
    const MemberSimResult &node = sim.members.front();
    result.completion = node.firstCompletion;
    result.sensorEnergy = node.sensorEnergy;
    result.transfers = sim.transfers;
    result.radioBusy = sim.radioBusy;
    result.robustness = sim.robustness;
    return result;
}

StreamResult
simulateStream(const EngineTopology &topology,
               const Placement &placement, const WirelessLink &link,
               double events_per_second, size_t events,
               const FaultProfile &faults)
{
    const FleetSimResult sim =
        simulateSingleNode(topology, placement, link,
                           events_per_second, events, faults, {});
    const MemberSimResult &node = sim.members.front();
    StreamResult result;
    result.events = node.events;
    result.deadlineMisses = node.deadlineMisses;
    result.worstLatency = node.worstLatency;
    result.meanLatency = node.meanLatency;
    result.sensorEnergy = node.sensorEnergy;
    result.degradedEvents = node.degradedEvents;
    result.robustness = sim.robustness;
    return result;
}

FleetSimResult
simulateFleet(const std::vector<FleetMember> &members,
              const WirelessLink &link, const RadioArbiter &arbiter,
              size_t events_per_node, const FaultProfile &faults,
              const std::vector<NodeOutage> &node_outages)
{
    std::vector<MemberSpec> specs;
    specs.reserve(members.size());
    for (const FleetMember &member : members) {
        specs.push_back({&member.topology, &member.placement,
                         member.eventsPerSecond});
    }
    return runSimulation(specs, link, arbiter, events_per_node, faults,
                         node_outages, {});
}

} // namespace xpro
