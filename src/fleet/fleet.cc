#include "fleet/fleet.hh"

#include <algorithm>
#include <cstring>
#include <memory>

#include "common/arena.hh"
#include "common/logging.hh"
#include "core/transfers.hh"
#include "platform/battery.hh"
#include "serve/batch_server.hh"
#include "serve/hot_path.hh"
#include "sim/event_queue.hh"
#include "sim/fault_sim.hh"

namespace xpro
{

std::vector<FleetNodeSpec>
heterogeneousFleet(size_t count, uint64_t seed)
{
    // Cycle the six paper test cases and the three process nodes at
    // co-prime strides so neighbouring nodes differ in both; every
    // node gets its own seed (its own synthetic body).
    static constexpr std::array<ProcessNode, 3> processes = {
        ProcessNode::Tsmc90,
        ProcessNode::Tsmc45,
        ProcessNode::Tsmc130,
    };
    std::vector<FleetNodeSpec> specs;
    specs.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        FleetNodeSpec spec;
        spec.testCase = allTestCases[i % allTestCases.size()];
        spec.process = processes[i % processes.size()];
        spec.seed = seed + i;
        specs.push_back(spec);
    }
    return specs;
}

std::vector<XProDesign>
designFleet(const std::vector<FleetNodeSpec> &specs,
            WirelessModel wireless, double bit_error_rate,
            WorkerPool &pool, size_t sweep_workers)
{
    ChannelModel channel;
    channel.bitErrorRate = bit_error_rate;
    return pool.map<XProDesign>(specs.size(), [&](size_t i) {
        const FleetNodeSpec &spec = specs[i];
        const SignalDataset dataset =
            makeTestCase(spec.testCase, spec.seed);

        EngineConfig config;
        config.process = spec.process;
        config.wireless = wireless;
        config.subspace.candidates = spec.subspaceCandidates;

        TrainingOptions options;
        options.maxTrainingSegments = spec.maxTrainingSegments;
        options.seed = spec.seed;

        XProDesign design;
        design.config = config;
        design.pipeline = trainPipeline(dataset, config, options);
        design.topology = buildEngineTopology(
            design.pipeline.ensemble, dataset.segmentLength, config,
            dataset.eventsPerSecond());
        const WirelessLink link(transceiver(wireless), channel);
        GeneratorOptions generator_options;
        generator_options.sweepWorkers = sweep_workers;
        design.partition =
            XProGenerator(design.topology, link, generator_options)
                .generate();
        return design;
    });
}

namespace
{

/**
 * The shared half-duplex channel: queues transfer requests from all
 * members and serves them one at a time under the arbiter's policy.
 */
class SharedRadio
{
  public:
    SharedRadio(EventQueue &queue, const RadioArbiter &arbiter,
                FleetSimResult &result)
        : _queue(queue), _arbiter(arbiter), _result(result)
    {
        // Warmup growth only: once every member has queued at least
        // once, the steady-state loop reuses this capacity.
        _pending.reserve(16);
        _requests.reserve(16);
    }

    /** Queue a transfer for @p node; @p on_delivered fires when the
     *  payload lands on the other end. */
    void
    request(size_t node, const TransferCost &cost,
            EventQueue::Handler on_delivered)
    {
        occupy(node, cost.airTime, std::move(on_delivered));
    }

    /** Queue one channel occupation (a single ARQ attempt, or one
     *  expectation-folded transfer) of length @p air for @p node. */
    void
    occupy(size_t node, Time air, EventQueue::Handler on_done)
    {
        Pending pending;
        pending.request = {node, _nextSequence++, _queue.now(), air};
        pending.onDelivered = std::move(on_done);
        _pending.push_back(std::move(pending));
        arbitrate();
    }

  private:
    struct Pending
    {
        RadioRequest request;
        EventQueue::Handler onDelivered;
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
        _result.radioBusy += _current.request.airTime;
        ++_result.transfers;
        // The in-flight job lives in _current (there is at most one:
        // _busy gates arbitration) so the completion capture is just
        // `this` — small enough for std::function's inline storage,
        // keeping the steady-state loop allocation-free. Move the
        // job to a local first: the handler may queue new transfers.
        _queue.scheduleAfter(_current.request.airTime, [this]() {
            Pending job = std::move(_current);
            job.onDelivered();
            _busy = false;
            arbitrate();
        });
    }

    EventQueue &_queue;
    const RadioArbiter &_arbiter;
    FleetSimResult &_result;
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
 * Event-level simulation of a whole fleet. Per-member dataflow
 * state mirrors the single-node SystemSimulator; the difference is
 * the shared radio (arbitrated, not FIFO-per-node) and the shared
 * aggregator CPU (a single server for every member's software
 * cells). Sensor-side cells of different members run concurrently:
 * every node owns its silicon.
 *
 * With a fault profile, all members share one Gilbert-Elliott loss
 * chain (it is one physical channel) but each runs its own outage
 * detector, local fallback and recovery probes: one body walking
 * out of range degrades only its own node.
 */
class FleetSimulator
{
  public:
    FleetSimulator(const std::vector<FleetMember> &members,
                   const WirelessLink &link,
                   const RadioArbiter &arbiter,
                   size_t events_per_node,
                   const FaultProfile *faults = nullptr,
                   const std::vector<NodeOutage> *node_outages =
                       nullptr)
        : _link(link),
          _eventsPerNode(events_per_node),
          _radio(_queue, arbiter, _result),
          _cpu(_queue, _result)
    {
        xproAssert(!members.empty(),
                   "fleet simulation needs at least one member");
        xproAssert(events_per_node > 0, "need at least one event");

        if (faults && faults->enabled)
            _faults.emplace(*faults);
        if (node_outages)
            _nodeOutages = *node_outages;
        xproAssert(_nodeOutages.empty() || _faults.has_value(),
                   "node outages need the fault machinery enabled");
        for (const NodeOutage &outage : _nodeOutages) {
            xproAssert(outage.node < members.size(),
                       "outage for node %zu of a %zu-node fleet",
                       outage.node, members.size());
        }

        _members.reserve(members.size());
        for (const FleetMember &member : members) {
            xproAssert(member.eventsPerSecond > 0.0,
                       "event rate must be positive");
            Member state;
            state.spec = &member;
            state.groups = broadcastGroups(member.topology);
            // Same-end / other-end consumer splits are static under
            // a fixed placement: computing them once (in consumer
            // order) keeps finishNode free of per-event vectors.
            state.splits.reserve(state.groups.size());
            for (const BroadcastGroup &group : state.groups) {
                GroupSplit split;
                for (size_t v : group.consumers) {
                    if (member.placement.inSensor(v) ==
                        member.placement.inSensor(group.producer))
                        split.sameEnd.push_back(v);
                    else
                        split.otherEnd.push_back(v);
                }
                state.splits.push_back(std::move(split));
            }
            state.instances.resize(events_per_node);
            const DataflowGraph &graph = member.topology.graph;
            // Flat per-(event, node) dataflow state, as in the
            // single-node simulator: the setup's allocation count
            // stays independent of events_per_node (checked by the
            // counting-allocator tests). sensorFinishAt is per
            // instance but fault-path-only, which is exempt from the
            // zero-allocation claim.
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
            _maxGraphNodes =
                std::max(_maxGraphNodes, graph.nodeCount());
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
                1.0 / _members[m].spec->eventsPerSecond);
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

        _result.members.resize(_members.size());
        for (size_t m = 0; m < _members.size(); ++m) {
            const Member &member = _members[m];
            const Time period = Time::seconds(
                1.0 / member.spec->eventsPerSecond);
            MemberSimResult &out = _result.members[m];
            out.events = _eventsPerNode;
            out.degradedEvents = member.degradedEvents;
            Time latency_sum;
            for (size_t k = 0; k < _eventsPerNode; ++k) {
                const Instance &instance = member.instances[k];
                xproAssert(instance.resultAt.has_value(),
                           "member %zu event %zu never completed",
                           m, k);
                const Time completion = *instance.resultAt;
                const Time latency =
                    completion - period * static_cast<double>(k);
                latency_sum += latency;
                out.worstLatency =
                    std::max(out.worstLatency, latency);
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
        const FleetMember *spec = nullptr;
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
            member.spec->topology.graph.node(u).costs;
        if (member.spec->placement.inSensor(u)) {
            // The member's own hardware: runs concurrently with
            // every other node's cells.
            if (_faults) {
                member.instances[k].sensorFinishAt[u] =
                    _queue.now() + costs.sensorDelay;
            }
            _queue.scheduleAfter(costs.sensorDelay, finish);
        } else {
            // Software on the one shared aggregator core.
            _cpu.submit(costs.aggregatorDelay, finish);
        }
    }

    void
    finishNode(size_t m, size_t k, size_t u)
    {
        Member &member = _members[m];
        const EngineTopology &topology = member.spec->topology;
        const Placement &placement = member.spec->placement;
        member.done[k * member.graphNodes + u] = 1;

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
                    _radio.request(
                        m, cost,
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
            if (!split.otherEnd.empty()) {
                if (_faults) {
                    sendPayload(m, k, u, group.bits,
                                split.otherEnd);
                } else {
                    // The consumer list on the far end is static
                    // (_members[m].splits[g]), so capturing the
                    // packed (m, k, g) index is enough — no
                    // per-event vector copy, no heap.
                    const TransferCost cost =
                        _link.transfer(group.bits);
                    _radio.request(
                        m, cost,
                        [this,
                         packed = (m * _eventsPerNode + k) *
                                      _maxGroups +
                                  g]() {
                            const size_t rest = packed / _maxGroups;
                            const size_t dm = rest / _eventsPerNode;
                            const size_t dk = rest % _eventsPerNode;
                            for (size_t v :
                                 _members[dm]
                                     .splits[packed % _maxGroups]
                                     .otherEnd)
                                deliverTo(dm, dk, v);
                        });
                }
            }
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

    ArqPacket
    makePacket(size_t m, size_t payload_bits, bool sender_in_sensor,
               std::string what, bool is_probe = false)
    {
        ArqPacket packet;
        packet.payloadBits = payload_bits;
        packet.senderInSensor = sender_in_sensor;
        packet.what = std::move(what);
        packet.isProbe = is_probe;
        packet.forceLost = [this, m](Time at) {
            return nodeInOutage(m, at);
        };
        return packet;
    }

    ChannelGrant
    grantFn(size_t m)
    {
        return [this, m](Time air, const std::string &,
                         EventQueue::Handler on_done) {
            _radio.occupy(m, air, std::move(on_done));
        };
    }

    void
    sendPayload(size_t m, size_t k, size_t u, size_t bits,
                std::vector<size_t> other_end)
    {
        const Member &member = _members[m];
        ArqPacket packet = makePacket(
            m, bits, member.spec->placement.inSensor(u),
            member.spec->topology.graph.node(u).name + " payload #" +
                std::to_string(k));
        runArq(_queue, *_faults, _link, std::move(packet), nullptr,
               grantFn(m), nullptr,
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

    void
    sendResult(size_t m, size_t k)
    {
        ArqPacket packet =
            makePacket(m, EngineTopology::resultBits, true,
                       "result #" + std::to_string(k));
        runArq(_queue, *_faults, _link, std::move(packet), nullptr,
               grantFn(m), nullptr,
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

    void
    replayResult(size_t m, size_t k)
    {
        ArqPacket packet =
            makePacket(m, EngineTopology::resultBits, true,
                       "replay result #" + std::to_string(k));
        runArq(_queue, *_faults, _link, std::move(packet), nullptr,
               grantFn(m), nullptr,
               [this, m, k](bool delivered, size_t) {
                   onPacketOutcome(m, delivered);
                   if (delivered) {
                       ++_faults->stats().replayedResults;
                       _recoverySum +=
                           _queue.now() -
                           *_members[m].instances[k].localResultAt;
                   } else {
                       _members[m].buffered.push_back(k);
                   }
               });
    }

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
            scheduleProbe(m);
        }
    }

    void
    scheduleProbe(size_t m)
    {
        const Member &member = _members[m];
        // Probing stops one period past the member's last injection
        // so the queue always drains under a permanent outage.
        const Time horizon =
            Time::seconds(1.0 / member.spec->eventsPerSecond) *
            static_cast<double>(_eventsPerNode);
        const Time next =
            _queue.now() + _faults->profile().probeInterval;
        if (next > horizon)
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
        ArqPacket packet = makePacket(
            m, EngineTopology::resultBits, true,
            "probe #" + std::to_string(member.probeCount++), true);
        runArq(_queue, *_faults, _link, std::move(packet), nullptr,
               grantFn(m), nullptr,
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
        const LocalFallback plan = computeLocalFallback(
            member.spec->topology, member.spec->placement,
            instance.sensorFinishAt, _queue.now());
        _queue.schedule(plan.completion, [this, m, k]() {
            Member &member = _members[m];
            Instance &instance = member.instances[k];
            instance.resultAt = _queue.now();
            instance.localResultAt = _queue.now();
            if (member.degradedMode)
                member.buffered.push_back(k);
            else
                replayResult(m, k);
        });
    }

    const WirelessLink &_link;
    size_t _eventsPerNode;
    /** Packing strides for single-word completion captures. */
    size_t _maxGraphNodes = 0;
    size_t _maxGroups = 0;
    EventQueue _queue;
    FleetSimResult _result;
    SharedRadio _radio;
    CpuServer _cpu;
    /** Backs every member's inputsPending/done slabs; declared
     *  before _members so the pointers outlive their users. */
    Arena _stateArena;
    std::vector<Member> _members;

    // Fault-injection state (unused on the legacy path).
    std::optional<FaultState> _faults;
    std::vector<NodeOutage> _nodeOutages;
    Time _recoverySum;
};

/** Longest single payload any member can put on the air. */
Time
largestAirTime(const std::vector<FleetMember> &members,
               const WirelessLink &link)
{
    Time largest = link.transfer(EngineTopology::resultBits).airTime;
    for (const FleetMember &member : members) {
        for (const BroadcastGroup &group :
             broadcastGroups(member.topology)) {
            largest = std::max(largest,
                               link.transfer(group.bits).airTime);
        }
    }
    return largest;
}

} // namespace

FleetSimResult
simulateFleet(const std::vector<FleetMember> &members,
              const WirelessLink &link, const RadioArbiter &arbiter,
              size_t events_per_node)
{
    FleetSimulator simulator(members, link, arbiter,
                             events_per_node);
    return simulator.run();
}

FleetSimResult
simulateFleet(const std::vector<FleetMember> &members,
              const WirelessLink &link, const RadioArbiter &arbiter,
              size_t events_per_node, const FaultProfile &faults,
              const std::vector<NodeOutage> &node_outages)
{
    if (!faults.enabled && node_outages.empty())
        return simulateFleet(members, link, arbiter,
                             events_per_node);
    // Scripted dropouts alone ride on the ARQ/fallback machinery
    // with an otherwise loss-free channel.
    FaultProfile profile = faults;
    profile.enabled = true;
    profile.validate();
    FleetSimulator simulator(members, link, arbiter, events_per_node,
                             &profile, &node_outages);
    return simulator.run();
}

FleetResult
runFleet(const FleetConfig &config)
{
    xproAssert(!config.nodes.empty(),
               "fleet needs at least one node");
    xproAssert(config.eventRateScale > 0.0,
               "event rate scale must be positive");

    ChannelModel channel;
    channel.bitErrorRate = config.bitErrorRate;
    const WirelessLink link(transceiver(config.wireless), channel);

    FleetResult result;

    // Phase 1: per-node design, concurrently.
    WorkerPool pool(config.workers);
    std::vector<XProDesign> designs =
        designFleet(config.nodes, config.wireless,
                    config.bitErrorRate, pool, config.sweepWorkers);
    result.designWork = pool.lastWork();
    result.designMakespan = pool.lastMakespan();
    result.designWall = pool.lastWall();

    const auto eventRate = [&](size_t i) {
        const TestCaseInfo &info =
            testCaseInfo(config.nodes[i].testCase);
        return info.sampleRateHz /
               static_cast<double>(info.segmentLength);
    };

    // Phase 2: admission against the shared aggregator.
    std::vector<AdmissionCandidate> candidates;
    candidates.reserve(designs.size());
    for (size_t i = 0; i < designs.size(); ++i) {
        candidates.push_back({&designs[i].topology,
                              &designs[i].partition.placement,
                              eventRate(i)});
    }
    result.admission =
        admitFleet(candidates, link, config.admission);

    // Phase 3: event-level simulation on the shared channel.
    std::vector<FleetMember> members;
    members.reserve(designs.size());
    for (size_t i = 0; i < designs.size(); ++i) {
        members.push_back({designs[i].topology,
                           result.admission.nodes[i].placement,
                           eventRate(i) * config.eventRateScale});
    }

    const FcfsArbiter fcfs;
    std::unique_ptr<TdmaArbiter> tdma;
    const RadioArbiter *arbiter = &fcfs;
    if (config.policy == RadioPolicy::Tdma) {
        const Time slot = config.tdmaSlot > Time()
                              ? config.tdmaSlot
                              : largestAirTime(members, link);
        tdma = std::make_unique<TdmaArbiter>(members.size(), slot);
        arbiter = tdma.get();
    }
    if (config.faults.enabled || !config.nodeOutages.empty()) {
        result.sim =
            simulateFleet(members, link, *arbiter,
                          config.eventsPerNode, config.faults,
                          config.nodeOutages);
    } else {
        result.sim = simulateFleet(members, link, *arbiter,
                                   config.eventsPerNode);
    }

    // Per-node analytic evaluation of the admitted placements.
    const Aggregator aggregator;
    result.nodes.reserve(designs.size());
    for (size_t i = 0; i < designs.size(); ++i) {
        FleetNodeResult node;
        node.spec = config.nodes[i];
        node.design = std::move(designs[i]);
        node.admission = result.admission.nodes[i];
        SensorNodeConfig sensor_config;
        sensor_config.process = node.spec.process;
        node.evaluation = evaluateEngine(
            EngineKind::CrossEnd, node.design.topology,
            node.admission.placement, link,
            SensorNode(sensor_config), aggregator,
            WorkloadContext{eventRate(i)});
        result.nodes.push_back(std::move(node));
    }

    // Fleet report.
    FleetReport &report = result.report;
    report.robustness = result.sim.robustness;
    report.policy = arbiter->name();
    report.nodeCount = result.nodes.size();
    report.spanMs = result.sim.span.ms();
    report.radioBusyMs = result.sim.radioBusy.ms();
    report.radioOccupancy =
        result.sim.span > Time()
            ? result.sim.radioBusy / result.sim.span
            : 0.0;
    report.transfers = result.sim.transfers;
    report.aggregatorBusyMs = result.sim.aggregatorBusy.ms();
    report.aggregatorUtilization =
        result.sim.span > Time()
            ? result.sim.aggregatorBusy / result.sim.span
            : 0.0;
    report.aggregatorCpuShare = result.admission.cpuUtilization;
    report.aggregatorPowerUw = result.admission.power.uw();
    report.aggregatorLifetimeHours =
        aggregator.battery()
            .lifetime(result.admission.power +
                      aggregator.idlePower())
            .hr();

    for (size_t i = 0; i < result.nodes.size(); ++i) {
        const FleetNodeResult &node = result.nodes[i];
        const MemberSimResult &sim = result.sim.members[i];
        FleetNodeReportRow row;
        row.symbol = testCaseInfo(node.spec.testCase).symbol;
        row.process = processNodeName(node.spec.process);
        row.admission =
            admissionOutcomeName(node.admission.outcome);
        row.sensorCells =
            node.admission.placement.sensorCellCount();
        row.totalCells = node.design.topology.graph.cellCount();
        row.accuracy = node.design.pipeline.testAccuracy;
        row.eventsPerSecond = eventRate(i);
        row.sensorLifetimeHours =
            node.evaluation.sensorLifetime.hr();
        row.events = sim.events;
        row.deadlineMisses = sim.deadlineMisses;
        row.meanLatencyMs = sim.meanLatency.ms();
        row.worstLatencyMs = sim.worstLatency.ms();
        row.aggregatorPowerUw = node.admission.power.uw();
        row.degradedEvents = sim.degradedEvents;
        report.totalEvents += sim.events;
        report.totalDeadlineMisses += sim.deadlineMisses;
        report.rows.push_back(std::move(row));
    }

    // Phase 4: steady-state serving. Segments come round-robin
    // across the nodes' regenerated datasets (makeTestCase is a pure
    // function of (case, seed), so the stream is deterministic) and
    // are classified through the allocation-free SIMD hot path, one
    // cross-user batch at a time. Every event is classified by its
    // own user's pipeline independently, so the predictions — and
    // hence the report bytes — are identical at any batch size and
    // worker count.
    if (config.servingEvents > 0) {
        std::vector<SignalDataset> datasets;
        std::vector<HotPathPipeline> pipelines;
        datasets.reserve(result.nodes.size());
        pipelines.reserve(result.nodes.size());
        for (const FleetNodeResult &node : result.nodes) {
            datasets.push_back(
                makeTestCase(node.spec.testCase, node.spec.seed));
            pipelines.emplace_back(node.design.pipeline);
        }
        std::vector<const HotPathPipeline *> users;
        users.reserve(pipelines.size());
        for (const HotPathPipeline &pipeline : pipelines)
            users.push_back(&pipeline);

        std::vector<ServingEvent> events;
        events.reserve(config.servingEvents);
        for (size_t e = 0; e < config.servingEvents; ++e) {
            const size_t user = e % users.size();
            const SignalDataset &data = datasets[user];
            const Segment &segment =
                data.segments[(e / users.size()) %
                              data.segments.size()];
            events.push_back({static_cast<uint32_t>(user),
                              segment.samples.data(),
                              segment.samples.size()});
        }

        BatchServer server(std::move(users), config.batchEvents,
                           config.servingWorkers);
        const std::vector<int> labels = server.serve(events);

        ServingReport &serving = report.serving;
        serving.enabled = true;
        serving.events = labels.size();
        serving.users = result.nodes.size();
        serving.nodeEvents.assign(result.nodes.size(), 0);
        serving.nodePositives.assign(result.nodes.size(), 0);
        for (size_t e = 0; e < labels.size(); ++e) {
            const size_t user = events[e].user;
            ++serving.nodeEvents[user];
            if (labels[e] > 0) {
                ++serving.positives;
                ++serving.nodePositives[user];
            }
        }
    }
    return result;
}

} // namespace xpro
