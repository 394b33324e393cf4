#include "sim/system_sim.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>

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
 * Kinds of the simulator's EventQueue items, and of the completion
 * records the radio and the CPU dispatch inline when an occupation
 * ends. "ref" data is a packed (member, event, cell-or-group) word.
 */
enum EventKind : uint32_t
{
    kInject,           ///< ref (m, k): member m acquires segment k
    kCellFinish,       ///< ref (m, k, u): cell u's output is ready
    kRadioDone,        ///< the channel's current occupation ended
    kTdmaWakeup,       ///< bits of the start Time the wakeup is for
    kCpuDone,          ///< the aggregator CPU's running job ended
    kResultDelivered,  ///< ref (m, k): fault-free result landed
    kPayloadDelivered, ///< ref (m, k, g): fault-free payload landed
    kArqAttemptDone,   ///< ARQ job id: one attempt's air time ended
    kArqBackoff,       ///< ARQ job id: start the next attempt
    kProbeTimer,       ///< member: time for a recovery probe
    kLocalResult,      ///< ref (m, k): local classification ready
};

/** A deferred action: what to dispatch when a resource frees up. */
struct Completion
{
    uint32_t kind = 0;
    uint64_t data = 0;
};

/** (member, event, cell-or-group) packed into one item word. */
constexpr unsigned kCellBits = 12;
constexpr unsigned kMemberBits = 20;
constexpr uint64_t kMaxCells = uint64_t{1} << kCellBits;
constexpr uint64_t kMaxMembers = uint64_t{1} << kMemberBits;
constexpr uint64_t kMaxEventsPerMember = uint64_t{1} << 32;

struct Ref
{
    size_t m = 0;
    size_t k = 0;
    size_t x = 0; ///< cell or broadcast group

    explicit Ref(uint64_t data)
        : m((data >> kCellBits) & (kMaxMembers - 1)), k(data >> 32),
          x(data & (kMaxCells - 1))
    {
    }
};

uint64_t
pack(size_t m, size_t k, size_t x = 0)
{
    return uint64_t(k) << 32 | uint64_t(m) << kCellBits | x;
}

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
        _requests.reserve(16);
        _completions.reserve(16);
    }

    /**
     * Queue one channel occupation (a single ARQ attempt, or one
     * expectation-folded transfer) of length @p air for @p node;
     * @p done is dispatched when it ends. @p label names it in the
     * trace (callers build it only when tracing).
     */
    void
    occupy(size_t node, Time air, Completion done,
           std::string label = {})
    {
        _requests.push_back({node, _nextSequence++, _queue.now(), air});
        _completions.push_back(done);
        if (_trace)
            _labels.push_back(std::move(label));
        arbitrate();
    }

    /** A kTdmaWakeup item for @p start fired. */
    void
    wake(Time start)
    {
        if (_wakeupArmed && _wakeupAt == start)
            _wakeupArmed = false;
        arbitrate();
    }

    /** A kRadioDone item fired: hand the finished occupation's
     *  completion to @p deliver, then serve the next request. */
    template <typename Deliver>
    void
    finish(Deliver &&deliver)
    {
        if (_trace) {
            _trace->push_back(
                {_queue.now(), "radio done: " + _currentLabel});
        }
        deliver(_current);
        _busy = false;
        arbitrate();
    }

  private:
    void
    arbitrate()
    {
        if (_busy || _requests.empty())
            return;

        Time start;
        const size_t chosen =
            _arbiter.grant(_requests, _queue.now(), &start);
        xproAssert(chosen < _requests.size(),
                   "arbiter chose request %zu of %zu", chosen,
                   _requests.size());
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
                _queue.schedule(start, kTdmaWakeup,
                                std::bit_cast<uint64_t>(start.sec()));
            }
            return;
        }

        _busy = true;
        const Time air = _requests[chosen].airTime;
        _current = _completions[chosen];
        const auto at = static_cast<ptrdiff_t>(chosen);
        _requests.erase(_requests.begin() + at);
        _completions.erase(_completions.begin() + at);
        if (_trace) {
            _currentLabel = std::move(_labels[chosen]);
            _labels.erase(_labels.begin() + at);
            _trace->push_back(
                {_queue.now(), "radio start: " + _currentLabel});
        }
        _result.radioBusy += air;
        ++_result.transfers;
        _queue.scheduleAfter(air, kRadioDone, 0);
    }

    EventQueue &_queue;
    const RadioArbiter &_arbiter;
    FleetSimResult &_result;
    std::vector<TraceEntry> *_trace;
    bool _busy = false;
    bool _wakeupArmed = false;
    Time _wakeupAt;
    /** Queued occupations, index-aligned: what the arbiter sees,
     *  what each one dispatches, and (tracing only) its label. */
    std::vector<RadioRequest> _requests;
    std::vector<Completion> _completions;
    std::vector<std::string> _labels;
    Completion _current; ///< the one in-flight occupation
    std::string _currentLabel;
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
        : _queue(queue), _result(result), _ring(16)
    {
    }

    /** Run a software job of length @p exec; @p done is dispatched
     *  at its completion. */
    void
    submit(Time exec, Completion done)
    {
        if (_size == _ring.size()) {
            // Full: unroll the ring into twice the space.
            std::vector<Job> grown(2 * _ring.size());
            for (size_t i = 0; i < _size; ++i)
                grown[i] = _ring[(_head + i) & (_ring.size() - 1)];
            _ring.swap(grown);
            _head = 0;
        }
        _ring[(_head + _size) & (_ring.size() - 1)] = {exec, done};
        ++_size;
        if (!_busy)
            startNext();
    }

    /** A kCpuDone item fired: hand the finished job's completion to
     *  @p deliver, then start the next job. */
    template <typename Deliver>
    void
    finish(Deliver &&deliver)
    {
        deliver(_current);
        startNext();
    }

  private:
    struct Job
    {
        Time exec;
        Completion done;
    };

    void
    startNext()
    {
        if (_size == 0) {
            _busy = false;
            return;
        }
        _busy = true;
        const Job job = _ring[_head];
        _head = (_head + 1) & (_ring.size() - 1);
        --_size;
        _current = job.done;
        _result.aggregatorBusy += job.exec;
        _queue.scheduleAfter(job.exec, kCpuDone, 0);
    }

    EventQueue &_queue;
    FleetSimResult &_result;
    bool _busy = false;
    /** FIFO backlog: a ring over a power-of-two vector. */
    std::vector<Job> _ring;
    size_t _head = 0;
    size_t _size = 0;
    Completion _current; ///< the one running job
};

/**
 * Event-level simulation of one or more members. The radio (and,
 * for a fleet, the aggregator CPU) is shared. Consecutive events of
 * one member may overlap in time.
 *
 * Every queue item is plain data, dispatched by kind. A member's
 * next segment is posted when its previous one arrives, under the
 * sequence number it would have had if every injection were posted
 * up front, so the queue holds only in-flight work and pops in
 * exactly that order. Per-event dataflow state lives in a ring of
 * instance slots per member: a slot retires, in event order, once
 * its result has landed and nothing in flight still names it, and
 * its latency is folded into the member's totals then.
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
        xproAssert(members.size() <= kMaxMembers &&
                       events_per_node <= kMaxEventsPerMember,
                   "%zu members x %zu events exceed the simulator's "
                   "event index",
                   members.size(), events_per_node);

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
        size_t max_cells = 1, max_groups = 1;
        for (const MemberSpec &spec : members) {
            xproAssert(spec.eventsPerSecond > 0.0,
                       "event rate must be positive");
            _members.push_back(makeMember(spec, options.probes));
            const Member &member = _members.back();
            max_cells = std::max(max_cells, member.graphNodes);
            max_groups = std::max(max_groups, member.groups.size());
        }
        // Runaway-loop guard sized from the offered work: each event
        // completes every cell once and moves every payload group
        // through a bounded number of ARQ attempts, so a sane run
        // stays far below the cap and a looping one still trips it.
        _maxEvents = std::max<size_t>(
            4000000, members.size() * events_per_node * 64 *
                         (max_cells + max_groups));
        _queue.reserve(64 + 16 * members.size());
    }

    FleetSimResult
    run()
    {
        // Every injection's sequence number is set aside up front;
        // each member's next segment is posted when its previous one
        // arrives (onInject).
        _firstInjection =
            _queue.reserveSequences(_members.size() * _eventsPerNode);
        for (size_t m = 0; m < _members.size(); ++m)
            postInjection(m, 0);
        _queue.runAll(_maxEvents, [this](uint32_t kind, uint64_t data) {
            dispatch(kind, data);
        });

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
            xproAssert(member.head == _eventsPerNode,
                       "member %zu event %zu never completed", m,
                       member.head);
            MemberSimResult &out = _result.members[m];
            out.events = _eventsPerNode;
            out.degradedEvents = member.degradedEvents;
            out.meanLatency = Time::seconds(
                member.latencySum.sec() /
                static_cast<double>(_eventsPerNode));
        }
        return std::move(_result);
    }

  private:
    /** One in-flight event of a member: its ring slot's scalars. */
    struct Instance
    {
        std::optional<Time> resultAt;
        /** Queued items, CPU jobs, radio requests and ARQ packets
         *  that still name this event. */
        uint32_t refs = 0;
        /** Fault path: classified via the local fallback. */
        bool degraded = false;
    };

    /** A broadcast group's consumers split by end relative to the
     *  producer; static under a fixed placement. */
    struct GroupSplit
    {
        std::vector<size_t> sameEnd;
        std::vector<size_t> otherEnd;
    };

    /** A local classification waiting for the link to come back. */
    struct BufferedResult
    {
        size_t event = 0;
        Time localResultAt;
    };

    struct Member
    {
        MemberSpec spec;
        Time period;
        /** Recovery probes stop past this time, so the queue always
         *  drains under a permanent outage. */
        Time probeHorizon;
        std::vector<BroadcastGroup> groups;
        /** splits[g] belongs to groups[g]. */
        std::vector<GroupSplit> splits;
        /** Producer -> group index: broadcastGroups lists groups by
         *  producer, so the groups cell u produces are
         *  groups[groupStart[u] .. groupStart[u + 1]). */
        std::vector<uint32_t> groupStart;
        /** Every cell's input count: a fresh slot's inputsPending. */
        std::vector<uint32_t> predecessors;
        size_t graphNodes = 0;

        /** Instance ring: event k, for head <= k < next, lives in
         *  slot k & (slots - 1). Per-(slot, cell) state is indexed
         *  slot * graphNodes + v. */
        size_t head = 0;
        size_t next = 0;
        std::vector<Instance> instances;
        std::vector<uint32_t> inputsPending;
        std::vector<uint8_t> done;
        /** Fault path: completion time of every cell that started on
         *  the sensor end (source included), for the fallback DP. */
        std::vector<std::optional<Time>> sensorFinishAt;

        /** Latencies of the retired events, summed in event order. */
        Time latencySum;

        // Per-node outage detector state (fault path only).
        size_t abandonStreak = 0;
        bool degradedMode = false;
        Time outageStart;
        std::vector<BufferedResult> buffered;
        size_t degradedEvents = 0;
        size_t probeCount = 0;
    };

    /** Where an ARQ packet came from, and so where its outcome
     *  goes. */
    enum class ArqOrigin : uint8_t
    {
        Payload, ///< cross-end payload of group `index` of event
        Result,  ///< in-sensor fusion result of event `event`
        Replay,  ///< buffered local result of event `event`
        Probe,   ///< recovery probe number `event`
    };

    /** One packet in flight through ARQ: a slot of _arqJobs. */
    struct ArqJob
    {
        ArqPacket packet;
        ArqOrigin origin = ArqOrigin::Payload;
        size_t member = 0;
        /** Event index (probe number for a probe). */
        size_t event = 0;
        /** Broadcast group of a payload. */
        size_t group = 0;
        /** Replay: when the local classification was produced. */
        Time localResultAt;
    };

    /** Smallest instance ring; it doubles whenever a member has
     *  more events in flight. */
    static constexpr size_t kInitialSlots = 8;

    Member
    makeMember(const MemberSpec &spec, bool probes) const
    {
        Member member;
        member.spec = spec;
        member.period = Time::seconds(1.0 / spec.eventsPerSecond);
        member.probeHorizon =
            probes ? member.period *
                         static_cast<double>(_eventsPerNode)
                   : Time();
        member.groups = broadcastGroups(*spec.topology);
        const DataflowGraph &graph = spec.topology->graph;
        const size_t nodes = graph.nodeCount();
        xproAssert(nodes <= kMaxCells &&
                       member.groups.size() <= kMaxCells,
                   "%zu cells / %zu groups exceed the simulator's "
                   "cell index",
                   nodes, member.groups.size());
        member.graphNodes = nodes;

        // Same-end / other-end consumer splits are static under a
        // fixed placement: computing them once (in consumer order)
        // keeps finishNode free of per-event vectors.
        member.splits.reserve(member.groups.size());
        member.groupStart.assign(nodes + 1, 0);
        for (const BroadcastGroup &group : member.groups) {
            GroupSplit split;
            for (size_t v : group.consumers) {
                if (spec.placement->inSensor(v) ==
                    spec.placement->inSensor(group.producer))
                    split.sameEnd.push_back(v);
                else
                    split.otherEnd.push_back(v);
            }
            member.splits.push_back(std::move(split));
            ++member.groupStart[group.producer + 1];
        }
        for (size_t u = 0; u < nodes; ++u)
            member.groupStart[u + 1] += member.groupStart[u];
        xproAssert(std::is_sorted(member.groups.begin(),
                                  member.groups.end(),
                                  [](const BroadcastGroup &a,
                                     const BroadcastGroup &b) {
                                      return a.producer < b.producer;
                                  }),
                   "broadcast groups out of producer order");

        member.predecessors.reserve(nodes);
        for (size_t v = 0; v < nodes; ++v) {
            member.predecessors.push_back(
                static_cast<uint32_t>(graph.predecessors(v).size()));
        }
        resizeSlots(member, kInitialSlots);
        return member;
    }

    /** Re-home @p member's in-flight events into a ring of
     *  @p slots. */
    void
    resizeSlots(Member &member, size_t slots) const
    {
        const size_t nodes = member.graphNodes;
        std::vector<Instance> instances(slots);
        std::vector<uint32_t> pending(slots * nodes);
        std::vector<uint8_t> done(slots * nodes);
        std::vector<std::optional<Time>> finish(_faults ? slots * nodes
                                                         : 0);
        const size_t old = member.instances.size();
        for (size_t k = member.head; k < member.next; ++k) {
            const size_t from = k & (old - 1);
            const size_t to = k & (slots - 1);
            instances[to] = member.instances[from];
            std::copy_n(&member.inputsPending[from * nodes], nodes,
                        &pending[to * nodes]);
            std::copy_n(&member.done[from * nodes], nodes,
                        &done[to * nodes]);
            if (_faults) {
                std::copy_n(&member.sensorFinishAt[from * nodes],
                            nodes, &finish[to * nodes]);
            }
        }
        member.instances.swap(instances);
        member.inputsPending.swap(pending);
        member.done.swap(done);
        member.sensorFinishAt.swap(finish);
    }

    size_t
    slotOf(const Member &member, size_t k) const
    {
        return k & (member.instances.size() - 1);
    }

    Instance &
    instance(size_t m, size_t k)
    {
        Member &member = _members[m];
        return member.instances[slotOf(member, k)];
    }

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
    dispatch(uint32_t kind, uint64_t data)
    {
        const auto deliver = [this](Completion done) {
            dispatch(done.kind, done.data);
        };
        switch (kind) {
        case kInject:
            onInject(Ref(data));
            return;
        case kCellFinish: {
            const Ref ref(data);
            finishNode(ref.m, ref.k, ref.x);
            release(ref.m, ref.k);
            return;
        }
        case kRadioDone:
            _radio.finish(deliver);
            return;
        case kTdmaWakeup:
            _radio.wake(Time::seconds(std::bit_cast<double>(data)));
            return;
        case kCpuDone:
            _cpu->finish(deliver);
            return;
        case kResultDelivered: {
            const Ref ref(data);
            instance(ref.m, ref.k).resultAt = _queue.now();
            release(ref.m, ref.k);
            return;
        }
        case kPayloadDelivered: {
            // The consumer list on the far end is static
            // (splits[g]), so the packed (m, k, g) is all it needs.
            const Ref ref(data);
            for (size_t v : _members[ref.m].splits[ref.x].otherEnd)
                deliverTo(ref.m, ref.k, v);
            release(ref.m, ref.k);
            return;
        }
        case kArqAttemptDone:
            onArqAttemptDone(data);
            return;
        case kArqBackoff:
            startAttempt(data);
            return;
        case kProbeTimer:
            if (_members[data].degradedMode)
                sendProbe(data);
            return;
        case kLocalResult:
            onLocalResult(Ref(data));
            return;
        }
        panic("unknown event kind %u", kind);
    }

    /** Post member @p m's segment @p k under its reserved
     *  sequence number. */
    void
    postInjection(size_t m, size_t k)
    {
        _queue.scheduleReserved(
            _members[m].period * static_cast<double>(k),
            _firstInjection + m * _eventsPerNode + k, kInject,
            pack(m, k));
    }

    void
    onInject(const Ref &ref)
    {
        Member &member = _members[ref.m];
        if (ref.k + 1 < _eventsPerNode)
            postInjection(ref.m, ref.k + 1);
        xproAssert(ref.k == member.next,
                   "member %zu injects event %zu out of order", ref.m,
                   ref.k);
        if (member.next - member.head == member.instances.size())
            resizeSlots(member, 2 * member.instances.size());
        const size_t slot = slotOf(member, ref.k);
        const size_t nodes = member.graphNodes;
        member.instances[slot] = Instance{};
        std::copy_n(member.predecessors.data(), nodes,
                    &member.inputsPending[slot * nodes]);
        std::memset(&member.done[slot * nodes], 0, nodes);
        if (_faults) {
            std::fill_n(&member.sensorFinishAt[slot * nodes], nodes,
                        std::nullopt);
        }
        ++member.next;
        completeNode(ref.m, ref.k, DataflowGraph::sourceId);
    }

    /** Something now names member @p m's event @p k. */
    void
    hold(size_t m, size_t k)
    {
        ++instance(m, k).refs;
    }

    /** Drop one name of member @p m's event @p k, then retire every
     *  finished event at the head of the ring. */
    void
    release(size_t m, size_t k)
    {
        Member &member = _members[m];
        Instance &slot = member.instances[slotOf(member, k)];
        xproAssert(slot.refs > 0, "member %zu event %zu released "
                                  "more often than held", m, k);
        if (--slot.refs > 0 || k != member.head)
            return;
        while (member.head < member.next) {
            const Instance &oldest =
                member.instances[slotOf(member, member.head)];
            if (oldest.refs > 0 || !oldest.resultAt)
                return;
            retire(m, member.head, *oldest.resultAt, oldest.degraded);
            ++member.head;
        }
    }

    /** Fold member @p m's event @p k into its results. Called in
     *  event order, so the latency sum adds in that order too. */
    void
    retire(size_t m, size_t k, Time completion, bool degraded)
    {
        Member &member = _members[m];
        // A degraded event legitimately skips cells: the local
        // fallback recomputes them outside the dataflow walk.
        if (!degraded)
            checkExecuted(m, k);
        MemberSimResult &out = _result.members[m];
        const Time latency =
            completion - member.period * static_cast<double>(k);
        member.latencySum += latency;
        out.worstLatency = std::max(out.worstLatency, latency);
        // Real-time requirement: done before the next segment has
        // been fully acquired.
        if (latency > member.period)
            ++out.deadlineMisses;
        if (k == 0)
            out.firstCompletion = completion;
        _result.span = std::max(_result.span, completion);
    }

    void
    checkExecuted(size_t m, size_t k) const
    {
        const Member &member = _members[m];
        const uint8_t *done =
            &member.done[slotOf(member, k) * member.graphNodes];
        for (size_t v = 1; v < member.graphNodes; ++v) {
            xproAssert(done[v],
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
        uint32_t &pending =
            member.inputsPending[slotOf(member, k) * member.graphNodes +
                                 v];
        xproAssert(pending > 0, "duplicate delivery to node %zu",
                   v);
        if (--pending == 0)
            completeNode(m, k, v);
    }

    /** Post cell @p u's finish @p delay from now. */
    void
    finishAfter(Time delay, size_t m, size_t k, size_t u)
    {
        hold(m, k);
        _queue.scheduleAfter(delay, kCellFinish, pack(m, k, u));
    }

    void
    completeNode(size_t m, size_t k, size_t u)
    {
        Member &member = _members[m];
        const size_t cell = slotOf(member, k) * member.graphNodes + u;
        if (u == DataflowGraph::sourceId) {
            if (_faults) {
                member.sensorFinishAt[cell] = _queue.now();
                // Injected mid-outage: straight to local fallback.
                if (member.degradedMode)
                    degradeEvent(m, k);
            }
            finishAfter(Time(), m, k, u);
            return;
        }
        const CellCosts &costs =
            member.spec.topology->graph.node(u).costs;
        if (member.spec.placement->inSensor(u)) {
            // The member's own hardware: runs concurrently with
            // every other node's cells.
            meter(m).compute += costs.sensorEnergy;
            if (_faults) {
                member.sensorFinishAt[cell] =
                    _queue.now() + costs.sensorDelay;
            }
            finishAfter(costs.sensorDelay, m, k, u);
        } else if (_cpu) {
            // Software on the one shared aggregator core.
            hold(m, k);
            _cpu->submit(costs.aggregatorDelay,
                         {kCellFinish, pack(m, k, u)});
        } else {
            finishAfter(costs.aggregatorDelay, m, k, u);
        }
    }

    void
    finishNode(size_t m, size_t k, size_t u)
    {
        Member &member = _members[m];
        const EngineTopology &topology = *member.spec.topology;
        const Placement &placement = *member.spec.placement;
        const size_t slot = slotOf(member, k);
        member.done[slot * member.graphNodes + u] = 1;
        if (_trace) {
            note("done " + topology.graph.node(u).name + " #" +
                 std::to_string(k));
        }

        // Degraded instances stop propagating: everything not yet
        // started is being recomputed by the local fallback.
        if (member.instances[slot].degraded)
            return;

        if (u == topology.fusionNode) {
            if (!placement.inSensor(u)) {
                member.instances[slot].resultAt = _queue.now();
            } else if (_faults) {
                sendArq(ArqOrigin::Result, m, k);
            } else {
                const TransferCost cost =
                    _link.transfer(EngineTopology::resultBits);
                meter(m).tx += cost.txEnergy;
                hold(m, k);
                _radio.occupy(m, cost.airTime,
                              {kResultDelivered, pack(m, k)},
                              _trace ? "result #" + std::to_string(k)
                                     : std::string());
            }
        }

        for (size_t g = member.groupStart[u];
             g < member.groupStart[u + 1]; ++g) {
            const GroupSplit &split = member.splits[g];
            for (size_t v : split.sameEnd)
                deliverTo(m, k, v);
            if (split.otherEnd.empty())
                continue;
            if (_faults) {
                sendArq(ArqOrigin::Payload, m, k, g);
                continue;
            }
            const TransferCost cost =
                _link.transfer(member.groups[g].bits);
            if (placement.inSensor(u))
                meter(m).tx += cost.txEnergy;
            else
                meter(m).rx += cost.rxEnergy;
            hold(m, k);
            _radio.occupy(m, cost.airTime,
                          {kPayloadDelivered, pack(m, k, g)},
                          _trace ? payloadLabel(m, k, g)
                                 : std::string());
        }
    }

    std::string
    payloadLabel(size_t m, size_t k, size_t g) const
    {
        const Member &member = _members[m];
        return member.spec.topology->graph
                   .node(member.groups[g].producer)
                   .name +
               " payload #" + std::to_string(k);
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

    /** Trace tag of @p job, e.g. "svm payload #0". */
    std::string
    arqLabel(const ArqJob &job) const
    {
        const std::string k = std::to_string(job.event);
        switch (job.origin) {
        case ArqOrigin::Payload:
            return payloadLabel(job.member, job.event, job.group);
        case ArqOrigin::Result:
            return "result #" + k;
        case ArqOrigin::Replay:
            return "replay result #" + k;
        case ArqOrigin::Probe:
            return "probe #" + k;
        }
        return {};
    }

    /** Drive one of member @p m's packets through ARQ: @p origin
     *  and the ArqJob fields after it say what it carries. */
    void
    sendArq(ArqOrigin origin, size_t m, size_t event, size_t group = 0,
            Time local_result_at = Time())
    {
        ArqJob job;
        job.origin = origin;
        job.member = m;
        job.event = event;
        job.group = group;
        job.localResultAt = local_result_at;
        const Member &member = _members[m];
        size_t bits = EngineTopology::resultBits;
        bool sender_in_sensor = true;
        if (job.origin == ArqOrigin::Payload) {
            const BroadcastGroup &group = member.groups[job.group];
            bits = group.bits;
            sender_in_sensor =
                member.spec.placement->inSensor(group.producer);
        }
        if (job.origin == ArqOrigin::Payload ||
            job.origin == ArqOrigin::Result)
            hold(job.member, job.event);
        job.packet =
            openArqPacket(*_faults, _link, bits, sender_in_sensor,
                          job.origin == ArqOrigin::Probe);
        uint64_t id;
        if (_freeArqJobs.empty()) {
            id = _arqJobs.size();
            _arqJobs.push_back(job);
        } else {
            id = _freeArqJobs.back();
            _freeArqJobs.pop_back();
            _arqJobs[id] = job;
        }
        startAttempt(id);
    }

    /** Start ARQ job @p id's next attempt on the shared radio. */
    void
    startAttempt(uint64_t id)
    {
        ArqJob &job = _arqJobs[id];
        const Time now = _queue.now();
        const Time air = startArqAttempt(
            *_faults, job.packet, now,
            nodeInOutage(job.member, now),
            meter(job.member));
        std::string label;
        if (_trace) {
            label = arqLabel(job);
            if (job.packet.attempt > 0)
                label += " try " + std::to_string(job.packet.attempt);
        }
        _radio.occupy(job.member, air, {kArqAttemptDone, id},
                      std::move(label));
    }

    void
    onArqAttemptDone(uint64_t id)
    {
        Time backoff;
        const ArqOutcome outcome =
            finishArqAttempt(*_faults, _arqJobs[id].packet, &backoff);
        if (outcome == ArqOutcome::Retry) {
            if (_trace)
                note("retry " + arqLabel(_arqJobs[id]));
            _queue.scheduleAfter(backoff, kArqBackoff, id);
            return;
        }
        // Free the slot before acting on the outcome, which may send
        // new packets.
        const ArqJob job = _arqJobs[id];
        _freeArqJobs.push_back(static_cast<uint32_t>(id));
        if (outcome == ArqOutcome::Abandoned && _trace)
            note("drop " + arqLabel(job));
        const bool delivered = outcome == ArqOutcome::Delivered;
        const size_t m = job.member;
        const size_t k = job.event;
        switch (job.origin) {
        case ArqOrigin::Payload:
            onPacketOutcome(m, delivered);
            if (!delivered)
                degradeEvent(m, k);
            else if (!instance(m, k).degraded) {
                for (size_t v : _members[m].splits[job.group].otherEnd)
                    deliverTo(m, k, v);
            }
            release(m, k);
            return;
        case ArqOrigin::Result:
            onPacketOutcome(m, delivered);
            if (!instance(m, k).degraded) {
                if (delivered)
                    instance(m, k).resultAt = _queue.now();
                else
                    degradeEvent(m, k);
            }
            release(m, k);
            return;
        case ArqOrigin::Replay:
            onPacketOutcome(m, delivered);
            if (delivered) {
                ++_faults->stats().replayedResults;
                _recoverySum += _queue.now() - job.localResultAt;
            } else {
                // Back to the shelf until the next recovery.
                _members[m].buffered.push_back({k, job.localResultAt});
            }
            return;
        case ArqOrigin::Probe:
            if (!_members[m].degradedMode)
                return;
            if (delivered)
                onPacketOutcome(m, true);
            else
                scheduleProbe(m);
            return;
        }
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
                std::vector<BufferedResult> pending;
                pending.swap(member.buffered);
                for (const BufferedResult &result : pending) {
                    sendArq(ArqOrigin::Replay, m, result.event, 0,
                            result.localResultAt);
                }
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
        _queue.schedule(next, kProbeTimer, m);
    }

    void
    sendProbe(size_t m)
    {
        sendArq(ArqOrigin::Probe, m, _members[m].probeCount++);
    }

    /** Finish member @p m's event @p k locally from now on. */
    void
    degradeEvent(size_t m, size_t k)
    {
        Member &member = _members[m];
        const size_t slot = slotOf(member, k);
        Instance &instance = member.instances[slot];
        if (instance.degraded)
            return;
        instance.degraded = true;
        ++member.degradedEvents;
        ++_faults->stats().degradedEvents;
        if (_trace)
            note("fallback #" + std::to_string(k));
        const size_t nodes = member.graphNodes;
        const LocalFallback plan = computeLocalFallback(
            *member.spec.topology, *member.spec.placement,
            std::span(&member.sensorFinishAt[slot * nodes], nodes),
            _queue.now());
        meter(m).compute += plan.compute;
        hold(m, k);
        _queue.schedule(plan.completion, kLocalResult, pack(m, k));
    }

    void
    onLocalResult(const Ref &ref)
    {
        const Time now = _queue.now();
        instance(ref.m, ref.k).resultAt = now;
        if (_trace)
            note("local result #" + std::to_string(ref.k));
        if (_members[ref.m].degradedMode) {
            _members[ref.m].buffered.push_back({ref.k, now});
        } else {
            sendArq(ArqOrigin::Replay, ref.m, ref.k, 0, now);
        }
        release(ref.m, ref.k);
    }

    const WirelessLink &_link;
    size_t _eventsPerNode;
    std::vector<TraceEntry> *_trace;
    /** Runaway-loop cap handed to EventQueue::runAll. */
    size_t _maxEvents = 0;
    /** Sequence number of member 0's first injection. */
    uint64_t _firstInjection = 0;
    EventQueue _queue;
    FleetSimResult _result;
    std::vector<NodeOutage> _nodeOutages;
    SharedRadio _radio;
    /** The shared aggregator CPU; absent for a single node. */
    std::optional<CpuServer> _cpu;
    std::vector<Member> _members;

    // Fault-injection state (unused on the fault-free path).
    std::optional<FaultState> _faults;
    Time _recoverySum;
    /** ARQ packets in flight, recycled through _freeArqJobs. */
    std::vector<ArqJob> _arqJobs;
    std::vector<uint32_t> _freeArqJobs;
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
