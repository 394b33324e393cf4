/**
 * @file
 * Population-scale fleet simulation (DESIGN.md §16): a million
 * nodes in one process, as struct-of-arrays slabs driven through a
 * sensor -> phone -> edge gateway -> cloud hierarchy on a sharded
 * hierarchical time wheel.
 *
 * Everything the inner loop touches is integer arithmetic on flat
 * arrays: ticks are microseconds, energy is nanojoules, statistics
 * are per-shard sums and maxima. Shards own whole gateways
 * (gateway % shards), so every piece of mutable state — a phone
 * cell's FCFS channel, a phone's per-window compute budget, a
 * gateway's airtime and cloud quota — is touched by exactly one
 * shard, and the per-shard statistics merge by commutative-
 * associative reduction. That is the whole determinism argument:
 * the report is a pure function of the configuration, byte-
 * identical at any shard or worker count.
 */

#include "fleet/fleet.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/logging.hh"
#include "obs/stats_registry.hh"
#include "sim/event_queue.hh"

namespace xpro
{

namespace
{

/** Wheel item kinds; part of the (at, node, kind, data) order. */
enum : uint32_t
{
    kInject = 0,  ///< sensor senses event k
    kUplink = 1,  ///< sensor -> phone transfer + phone compute
    kGateway = 2, ///< phone -> gateway transfer + cloud ingest
};

/** data field layout: event index in the low bits, defer count
 *  above (an event is deferred at most a handful of windows). */
constexpr uint32_t kEventBits = 24;
constexpr uint32_t kEventMask = (uint32_t(1) << kEventBits) - 1;
static_assert(kEventMask == kMaxPopulationEventsPerNode,
              "the event field bounds eventsPerNode");

uint32_t
packData(uint64_t event, uint32_t defers)
{
    xproAssert(event <= kEventMask, "event index %llu overflows",
               static_cast<unsigned long long>(event));
    return static_cast<uint32_t>(event) | (defers << kEventBits);
}

/** splitmix64 finalizer: per-node phase stagger, so equal-rate
 *  nodes do not inject in one synchronized mega-slot. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * AdaSense-style duty bands by battery state of charge: full duty
 * above 60%, 3-of-5 events above 30%, 1-of-3 below. Deliberately
 * the same ladder the adaptive controller uses (control/), but the
 * constants are duplicated here — fleet must not depend on control
 * (control already links fleet).
 */
struct DutyBand
{
    uint32_t num;
    uint32_t den;
};

constexpr DutyBand kDutyBands[] = {{1, 1}, {3, 5}, {1, 3}};

uint8_t
dutyBandFor(uint64_t battery, uint64_t capacity)
{
    if (battery * 10 >= capacity * 6)
        return 0;
    if (battery * 10 >= capacity * 3)
        return 1;
    return 2;
}

/** Bresenham-style rational gate: of every @p band.den consecutive
 *  events, exactly @p band.num transmit, evenly spread. */
bool
dutyTransmits(const DutyBand &band, uint64_t event)
{
    return (event * band.num) % band.den < band.num;
}

/** Per-archetype integer accumulators, kept per shard and merged by
 *  sum/max — both commutative and associative, so any grouping of
 *  gateways into shards produces identical totals. */
struct ArchetypeStats
{
    uint64_t completed = 0;
    uint64_t misses = 0;
    uint64_t latencySumUs = 0;
    uint64_t latencyMaxUs = 0;
    uint64_t fallbacks = 0;
    /** Events never transmitted: gated off by the duty band, or
     *  sensed on a flat battery (the ladder's bottom rung). */
    uint64_t suppressed = 0;
    /** Fallbacks caused by ARQ exhaustion on a faulty uplink (a
     *  subset of fallbacks; feeds the per-row degraded counts). */
    uint64_t arqAbandoned = 0;
};

/** Shard-wide integer accumulators (same merge discipline). */
struct ShardStats
{
    uint64_t deferred = 0;
    uint64_t cloudThrottled = 0;
    uint64_t phoneBusyUs = 0;
    uint64_t gatewayBusyUs = 0;
    uint64_t radioBusyUs = 0;
    uint64_t transfers = 0;
    uint64_t spanMaxUs = 0;
    uint64_t items = 0;
    // Chaos-layer counters (reported only when chaos is enabled).
    uint64_t gatewayLocal = 0;      ///< completed sans cloud
    uint64_t blackoutFallbacks = 0; ///< no reachable gateway
    uint64_t replayed = 0;          ///< injects sensed late
    // Fault-profile (ARQ) counters (zero when faults are off); the
    // abandoned packets are the archetypes' arqAbandoned.
    uint64_t faultDelivered = 0;
    uint64_t faultAttempts = 0;
};

/**
 * Telemetry the report accumulators do not already hold: plain
 * per-shard counters (an ordinary increment on the hot path, no slab
 * or registry indirection) folded into the global registry once
 * after the run. Folding is pure addition, so the merged totals are
 * independent of the shard grouping (the stable-snapshot contract).
 */
struct ShardObs
{
    uint64_t admittedPhone = 0;
    uint64_t deferredPhone = 0;
    uint64_t latencyBuckets[StatsRegistry::kHistogramBuckets] = {};
};

/** One uplink's bounded stop-and-wait ARQ exchange. */
struct ArqOutcome
{
    uint64_t attempts = 1;
    uint64_t backoffWaitUs = 0;
    bool delivered = true;
};

/**
 * The shared FaultProfile pre-baked for the population hot loop:
 * probabilities scaled to integer 53-bit thresholds and ARQ backoffs
 * to integer microseconds, so the per-attempt path is hash-compare-
 * add only. Unlike the detailed path's LossProcess (one sequential
 * Rng chain per link), every draw here is a stateless splitmix64
 * hash of (seed, node, event, attempt) — the same burst statistics,
 * but no draw order to depend on, so the report stays byte-identical
 * at any shards x workers combination.
 */
struct LinkFaultModel
{
    bool enabled = false;
    uint64_t seed = 0;
    uint64_t lossGood53 = 0;
    uint64_t lossBad53 = 0;
    uint64_t goodToBad53 = 0;
    uint64_t badToGood53 = 0;
    uint32_t maxRetries = 0;
    std::vector<uint64_t> backoffUs; ///< wait after retry r fails

    static LinkFaultModel
    build(const FaultProfile &faults)
    {
        LinkFaultModel m;
        if (!faults.enabled)
            return m;
        faults.validate();
        const auto scale53 = [](double p) {
            p = std::min(1.0, std::max(0.0, p));
            return static_cast<uint64_t>(p * 9007199254740992.0);
        };
        m.enabled = true;
        m.seed = faults.seed;
        m.lossGood53 = scale53(faults.burst.lossGood);
        m.lossBad53 = scale53(faults.burst.lossBad);
        m.goodToBad53 = scale53(faults.burst.pGoodToBad);
        m.badToGood53 = scale53(faults.burst.pBadToGood);
        m.maxRetries = static_cast<uint32_t>(faults.arq.maxRetries);
        for (size_t r = 0; r < faults.arq.maxRetries; ++r)
            m.backoffUs.push_back(static_cast<uint64_t>(
                std::llround(faults.arq.backoff(r).us())));
        return m;
    }

    /** Uniform draw in [0, 2^53) for one attempt of one packet. */
    uint64_t
    draw(uint64_t node, uint64_t event, uint32_t attempt,
         uint64_t salt) const
    {
        uint64_t h = mix64(seed ^ (node * 0x9e3779b97f4a7c15ULL));
        h = mix64(h ^ (event * 0x100000001b3ULL) ^
                  (uint64_t(attempt) << 40) ^ salt);
        return h >> 11;
    }

    /**
     * Send event @p event of @p node: per-attempt loss and
     * Gilbert-Elliott state-flip draws, every attempt lost inside a
     * scripted @p outage. @p bad is the node's channel state, read
     * and advanced in place.
     */
    ArqOutcome
    send(uint64_t node, uint64_t event, bool outage, bool &bad) const
    {
        ArqOutcome out;
        out.delivered = false;
        out.attempts = 0;
        for (uint32_t t = 0; t <= maxRetries; ++t) {
            ++out.attempts;
            const bool lost =
                outage ||
                draw(node, event, t, 0) < (bad ? lossBad53 : lossGood53);
            if (draw(node, event, t, 1) <
                (bad ? badToGood53 : goodToBad53))
                bad = !bad;
            if (!lost) {
                out.delivered = true;
                break;
            }
            if (t < maxRetries)
                out.backoffWaitUs += backoffUs[t];
        }
        return out;
    }
};

/** A churner's leave or rejoin, due at a window boundary. */
struct ChurnEvent
{
    uint64_t window;
    uint32_t node;
    uint8_t leave;
};

/** Every shard's accumulators merged by sum and max. */
struct Totals
{
    std::vector<ArchetypeStats> arch;
    ArchetypeStats all; ///< arch summed over the classes
    ShardStats shard;
    ShardObs obs;
    /** retryHist[a-1] = packets delivered on attempt a. */
    std::vector<uint64_t> retryHist;
};

/** Largest number of chaos episodes a report lists verbatim. */
constexpr size_t kMaxEpisodes = 256;

/** Panics on an unusable configuration, else returns it. */
const PopulationFleetConfig &
checkedConfig(const PopulationFleetConfig &config)
{
    xproAssert(config.nodes > 0, "population fleet needs nodes");
    xproAssert(config.nodes <= UINT32_MAX,
               "node ids must fit the wheel's 32-bit field");
    xproAssert(config.eventsPerNode > 0 &&
                   config.eventsPerNode <= kEventMask,
               "events per node out of range");
    xproAssert(config.windowUs > 0, "need a nonzero sync window");
    for (const PopulationArchetype &a : config.archetypes) {
        xproAssert(a.sensorComputeUs > 0 && a.uplinkAirtimeUs > 0 &&
                       a.gatewayAirtimeUs > 0 && a.periodUs > 0,
                   "archetype '%s' needs positive integer costs",
                   a.symbol.c_str());
    }
    config.chaos.validate();
    return config;
}

/**
 * The chaos configuration a run executes. A disabled one runs as the
 * inert schedule: nothing down, no cloud windows, no churners, and a
 * zero retry backoff, so a deferred event parks at exactly the next
 * window boundary.
 */
ChaosConfig
effectiveChaos(const ChaosConfig &chaos)
{
    if (chaos.enabled)
        return chaos;
    ChaosConfig inert;
    inert.retryBackoffBaseUs = 0;
    inert.retryJitterUs = 0;
    return inert;
}

/**
 * One population run: node slabs, tier state and per-shard
 * accumulators; one handler per wheel item kind; the window barrier
 * (churn, then failover); and the report assembly. Drain handlers
 * touch only shard-s state plus the frozen chaos schedule; the
 * barrier runs single-threaded between windows and owns the rest.
 */
class PopulationSim
{
  public:
    explicit PopulationSim(const PopulationFleetConfig &config)
        : _config(checkedConfig(config)),
          _classes(config.archetypes.empty() ? syntheticArchetypes()
                                             : config.archetypes),
          _topo(TierTopology::build(config.nodes, config.tiers)),
          _budgets(TierBudgets::build(config.tiers, _topo,
                                      config.windowUs)),
          _window(config.windowUs),
          _shards(static_cast<size_t>(std::min<uint64_t>(
              {std::max<uint64_t>(config.shards, 1), _topo.gateways,
               config.nodes}))),
          _queue(_shards, _window),
          _slabs(_arena, config.nodes, _classes.size()),
          _collect(kStatsEnabled && config.collectStats),
          _chaos(effectiveChaos(config.chaos)),
          _sched(_chaos, _topo.gateways),
          _link(LinkFaultModel::build(config.faults)),
          _srcShards(_shards, 0),
          _guests(_topo.gateways),
          _cellFreeAt(_topo.phones, 0),
          _phoneBudgetUs(_topo.phones, 0),
          _phoneStamp(_topo.phones, ~uint64_t(0)),
          _gatewayAirUs(_topo.gateways, 0),
          _gatewayQuota(_topo.gateways, 0),
          _gatewayStamp(_topo.gateways, ~uint64_t(0)),
          _archStats(_shards,
                     std::vector<ArchetypeStats>(_classes.size())),
          _shardStats(_shards),
          _retryHist(_shards,
                     std::vector<uint64_t>(
                         _link.enabled ? _link.maxRetries + 1 : 0, 0)),
          _obs(_shards)
    {
        for (uint64_t n = 0; n < config.nodes; ++n) {
            _slabs.battery()[n] =
                _classes[_slabs.archetype()[n]].batteryNj;
            _slabs.gateway()[n] =
                static_cast<uint32_t>(_topo.gatewayOf(n));
        }
        // Churn: rejoin windows into a slab, both transitions into
        // the sorted boundary agenda the barrier walks.
        if (_chaos.churnFraction > 0.0) {
            for (uint64_t n = 0; n < config.nodes; ++n) {
                uint64_t leave = 0, join = 0;
                if (!_sched.churnWindows(n, leave, join))
                    continue;
                const uint32_t id = static_cast<uint32_t>(n);
                _slabs.churnJoin()[n] = static_cast<uint32_t>(join);
                _churnAgenda.push_back({leave, id, 1});
                _churnAgenda.push_back({join, id, 0});
            }
            std::sort(_churnAgenda.begin(), _churnAgenda.end(),
                      [](const ChurnEvent &a, const ChurnEvent &b) {
                          if (a.window != b.window)
                              return a.window < b.window;
                          return a.node < b.node;
                      });
        }
        // One pending inject per node: each inject schedules its
        // successor until the node's last event.
        for (uint64_t n = 0; n < config.nodes; ++n)
            _queue.shard(homeShard(n)).schedule(
                {phaseOf(n), static_cast<uint32_t>(n), kInject,
                 packData(0, 0)});
    }

    /** Drain every shard to completion. */
    void
    run()
    {
        WorkerPool pool(_config.workers);
        _queue.run(
            pool,
            [this](size_t s, const WheelItem &item) {
                ++_shardStats[s].items;
                switch (item.kind) {
                case kInject:
                    onInject(s, item);
                    break;
                case kUplink:
                    onUplink(s, item);
                    break;
                case kGateway:
                    onGateway(s, item);
                    break;
                default:
                    panic("unknown wheel item kind %u", item.kind);
                }
            },
            [this](uint64_t w, uint64_t end) { barrier(w, end); });
    }

    /** Merge the shards and assemble the result. */
    PopulationFleetResult
    result()
    {
        const Totals t = merge();
        // Every offered event ends exactly one way: completed, kept
        // on the sensor, never transmitted, or dropped in flight by
        // a churn departure.
        xproAssert(t.all.completed + t.all.fallbacks +
                           t.all.suppressed + _chaosLog.droppedEvents ==
                       _config.nodes * _config.eventsPerNode,
                   "population accounting lost events");

        // Report assembly is the only place doubles appear; every
        // input is an integer that is already shard/worker-
        // independent.
        PopulationFleetResult result;
        FleetReport &report = result.report;
        reportRows(t, report);
        reportTiers(t, report.tiers);
        if (_config.chaos.enabled)
            reportChaos(t, report.chaos);
        if (_link.enabled)
            reportRobustness(t, report.robustness);
        if (_collect)
            publishStats(t, report);
        result.simulatedEvents = t.shard.items;
        result.effectiveShards = _shards;
        result.bytesPerNode = NodeSlabs::bytesPerNode();
        return result;
    }

  private:
    uint64_t
    phaseOf(uint64_t node)
    {
        return mix64(_config.seed + node) %
               _classes[_slabs.archetype()[node]].periodUs;
    }

    /** Shard holding every pending item of @p node: the one that
     *  owns its serving gateway. */
    size_t
    homeShard(uint64_t node)
    {
        return static_cast<size_t>(_slabs.gateway()[node]) % _shards;
    }

    // --- Drain side: shard s state only ----------------------------

    /** The event stays on the sensor: the node's outage streak
     *  grows, saturating at the slab width. Returns the node's
     *  archetype accumulators for the caller to record why. */
    ArchetypeStats &
    sensorLocal(size_t s, uint64_t node)
    {
        uint16_t &streak = _slabs.outageStreak()[node];
        if (streak < UINT16_MAX)
            ++streak;
        return _archStats[s][_slabs.archetype()[node]];
    }

    void
    deferOrFallback(size_t s, const WheelItem &item)
    {
        const uint64_t event = item.data & kEventMask;
        const uint32_t defers = item.data >> kEventBits;
        if (defers >= _budgets.maxDefers) {
            ++sensorLocal(s, item.node).fallbacks; // out of patience
            return;
        }
        ++_shardStats[s].deferred;
        if (_collect && item.kind == kUplink)
            ++_obs[s].deferredPhone;
        // Deterministic exponential backoff + jitter, a pure
        // function of the item, so the same in any shard grouping.
        // A retry never lands before the next window boundary: the
        // tier budgets it ran out of only refresh there, so an
        // intra-window retry would burn a defer for nothing. The
        // inert schedule's zero backoff parks the item at exactly
        // that boundary.
        uint64_t delay = _chaos.retryBackoffBaseUs << defers;
        if (_chaos.retryJitterUs > 0)
            delay += mix64(_chaos.seed ^
                           (uint64_t(item.node) * 0x9e3779b97f4a7c15ULL) ^
                           (uint64_t(item.kind) << 48) ^ item.data) %
                     _chaos.retryJitterUs;
        const uint64_t next = std::max(
            item.at + delay, (item.at / _window + 1) * _window);
        _queue.shard(s).schedule(
            {next, item.node, item.kind, packData(event, defers + 1)});
    }

    void
    onInject(size_t s, const WheelItem &item)
    {
        const uint64_t n = item.node;
        const uint64_t event = item.data & kEventMask;
        const PopulationArchetype &a = _classes[_slabs.archetype()[n]];
        const uint64_t sensedAt = phaseOf(n) + event * a.periodUs;
        if (item.at > sensedAt)
            ++_shardStats[s].replayed; // parked by a churn absence
        if (event + 1 < _config.eventsPerNode) {
            // A replayed inject pushes its successor to at+1, so a
            // rejoining node replays its backlog one tick apart.
            // Otherwise item.at is the analytic time and the clamp
            // never fires.
            const uint64_t next_at =
                std::max(sensedAt + a.periodUs, item.at + 1);
            _queue.shard(s).schedule({next_at, item.node, kInject,
                                      packData(event + 1, 0)});
        }
        uint64_t &battery = _slabs.battery()[n];
        if (battery < a.eventEnergyNj) {
            // Flat battery: the node goes dark, transmitting 0 of N.
            ++sensorLocal(s, n).suppressed;
            return;
        }
        battery -= a.eventEnergyNj;
        const uint8_t band = dutyBandFor(battery, a.batteryNj);
        if (!dutyTransmits(kDutyBands[band], event)) {
            ++_archStats[s][_slabs.archetype()[n]].suppressed;
            return;
        }
        _queue.shard(s).schedule({item.at + a.sensorComputeUs,
                                  item.node, kUplink,
                                  packData(event, 0)});
    }

    void
    onUplink(size_t s, const WheelItem &item)
    {
        const uint64_t n = item.node;
        const PopulationArchetype &a = _classes[_slabs.archetype()[n]];
        if (_sched.gatewayDown(_slabs.gateway()[n])) {
            // Bottom of the degradation ladder: the serving gateway
            // is down and no failover target existed, so the event
            // is classified on the sensor.
            ++sensorLocal(s, n).fallbacks;
            ++_shardStats[s].blackoutFallbacks;
            return;
        }
        const size_t phone = static_cast<size_t>(_topo.phoneOf(n));
        const uint64_t w = item.at / _window;
        if (_phoneStamp[phone] != w) {
            _phoneStamp[phone] = w;
            _phoneBudgetUs[phone] = _budgets.phoneCpuUsPerWindow;
        }
        if (_phoneBudgetUs[phone] < a.phoneComputeUs) {
            deferOrFallback(s, item);
            return;
        }
        _phoneBudgetUs[phone] -= a.phoneComputeUs;
        if (_collect)
            ++_obs[s].admittedPhone;
        // Bounded stop-and-wait ARQ on a faulty uplink. Every
        // attempt occupies the cell channel; timeouts hold it while
        // the sensor waits for the missing ACK. The Gilbert-Elliott
        // state lives in a node slab (only this shard touches it).
        ArqOutcome arq;
        if (_link.enabled) {
            bool bad = _slabs.linkBad()[n] != 0;
            arq = _link.send(n, item.data & kEventMask,
                             _config.faults.inOutage(Time::micros(
                                 static_cast<double>(item.at))),
                             bad);
            _slabs.linkBad()[n] = bad ? 1 : 0;
            _shardStats[s].faultAttempts += arq.attempts;
            if (arq.delivered) {
                ++_shardStats[s].faultDelivered;
                ++_retryHist[s][arq.attempts - 1];
            }
        }
        // Cell-local FCFS channel: one scalar per phone cell.
        const uint64_t airUs = arq.attempts * a.uplinkAirtimeUs;
        const uint64_t start = std::max(item.at, _cellFreeAt[phone]);
        const uint64_t sent = start + airUs + arq.backoffWaitUs;
        _cellFreeAt[phone] = sent;
        _shardStats[s].radioBusyUs += airUs;
        if (!arq.delivered) {
            // ARQ exhausted: refund the reserved phone compute (the
            // payload never arrived) and classify on the sensor —
            // the same degraded placement as the detailed path.
            _phoneBudgetUs[phone] += a.phoneComputeUs;
            ArchetypeStats &arch = sensorLocal(s, n);
            ++arch.fallbacks;
            ++arch.arqAbandoned;
            return;
        }
        _shardStats[s].phoneBusyUs += a.phoneComputeUs;
        ++_shardStats[s].transfers;
        _queue.shard(s).schedule(
            {sent + a.phoneComputeUs, item.node, kGateway, item.data});
    }

    void
    onGateway(size_t s, const WheelItem &item)
    {
        const uint64_t n = item.node;
        const PopulationArchetype &a = _classes[_slabs.archetype()[n]];
        // The serving gateway comes from the slab, not the static
        // topology: a failover re-homes the node to a neighbor.
        const size_t gateway = static_cast<size_t>(_slabs.gateway()[n]);
        if (_sched.gatewayDown(gateway)) {
            // Total blackout (no failover target existed when the
            // gateway died): sensor-local classification.
            ++sensorLocal(s, n).fallbacks;
            ++_shardStats[s].blackoutFallbacks;
            return;
        }
        const uint64_t w = item.at / _window;
        if (_gatewayStamp[gateway] != w) {
            _gatewayStamp[gateway] = w;
            _gatewayAirUs[gateway] = _budgets.gatewayAirtimeUsPerWindow;
            _gatewayQuota[gateway] =
                _budgets.cloudEventsPerGatewayPerWindow;
        }
        if (_gatewayAirUs[gateway] < a.gatewayAirtimeUs) {
            deferOrFallback(s, item);
            return;
        }
        // Degradation rung 1: with the cloud unreachable the gateway
        // aggregates locally — no ingest quota consumed, no
        // throttling, the event still completes.
        const bool cloudDown = _sched.cloudDown(w);
        if (!cloudDown && _gatewayQuota[gateway] == 0) {
            ++_shardStats[s].cloudThrottled;
            deferOrFallback(s, item);
            return;
        }
        _gatewayAirUs[gateway] -= a.gatewayAirtimeUs;
        ShardStats &ss = _shardStats[s];
        if (cloudDown)
            ++ss.gatewayLocal;
        else
            --_gatewayQuota[gateway];
        ss.gatewayBusyUs += a.gatewayAirtimeUs;
        ++ss.transfers;
        const uint64_t completion = item.at + a.gatewayAirtimeUs;
        const uint64_t event = item.data & kEventMask;
        const uint64_t latency =
            completion - (phaseOf(n) + event * a.periodUs);
        ArchetypeStats &arch = _archStats[s][_slabs.archetype()[n]];
        ++arch.completed;
        arch.latencySumUs += latency;
        arch.latencyMaxUs = std::max(arch.latencyMaxUs, latency);
        if (latency > a.periodUs)
            ++arch.misses;
        if (_collect)
            ++_obs[s].latencyBuckets[StatsRegistry::bucketOf(latency)];
        ss.spanMaxUs = std::max(ss.spanMaxUs, completion);
        _slabs.outageStreak()[n] = 0;
    }

    // --- Barrier side: single-threaded, between windows ------------

    void
    barrier(uint64_t w, uint64_t end)
    {
        _windows = w + 1;
        // Downtime accounting for the window just drained; the
        // schedule still reflects it (transitions below enter
        // window w + 1).
        _chaosLog.gatewayDownWindows += _sched.downGateways();
        if (_sched.cloudDown(w))
            ++_chaosLog.cloudDownWindows;
        if (_queue.pending() == 0)
            return; // nothing left to heal; skip transitions
        const uint64_t next = w + 1;
        if (_sched.cloudDown(next) != _sched.cloudDown(w))
            recordEpisode(end,
                          _sched.cloudDown(next) ? "cloud-down"
                                                 : "cloud-up",
                          0, 0);
        churn(next);
        failover(next, end);
    }

    void
    recordEpisode(uint64_t at_us, const char *kind, uint64_t gateway,
                  size_t nodes)
    {
        if (_chaosLog.episodes.size() < kMaxEpisodes)
            _chaosLog.episodes.push_back(
                {static_cast<double>(at_us) / 1000.0, kind,
                 static_cast<size_t>(gateway), nodes});
        else
            ++_chaosLog.droppedEpisodes;
    }

    /** Flag @p node for the current pass, and its home shard as a
     *  source the pass must scan. */
    void
    mark(uint32_t node)
    {
        if (_marked.empty())
            _marked.assign(_config.nodes, 0);
        _srcShards[homeShard(node)] = 1;
        if (!_marked[node]) {
            _marked[node] = 1;
            _markedList.push_back(node);
        }
    }

    void
    clearMarks()
    {
        for (uint32_t node : _markedList)
            _marked[node] = 0;
        _markedList.clear();
        std::fill(_srcShards.begin(), _srcShards.end(), 0);
    }

    /** Node churn due at the boundary entering window @p next. The
     *  queue's contract for departed nodes: in-flight transport
     *  items are DROPPED (they can never complete), the self-inject
     *  is REDIRECTED to the rejoin tick in the node's home shard. */
    void
    churn(uint64_t next)
    {
        while (_churnCursor < _churnAgenda.size() &&
               _churnAgenda[_churnCursor].window <= next) {
            const ChurnEvent &e = _churnAgenda[_churnCursor++];
            if (e.leave) {
                mark(e.node);
                ++_chaosLog.churnLeaves;
            } else {
                ++_chaosLog.churnJoins;
            }
        }
        if (_markedList.empty())
            return;
        _chaosLog.droppedEvents +=
            _queue.dropIf(_srcShards, [this](const WheelItem &it) {
                return _marked[it.node] != 0 && it.kind != kInject;
            });
        _chaosLog.parkedInjects += _queue.rekeyIf(
            _srcShards,
            [this](const WheelItem &it) { return _marked[it.node] != 0; },
            [this](WheelItem &it) {
                const uint64_t joinTick =
                    uint64_t(_slabs.churnJoin()[it.node]) * _window;
                it.at = std::max(it.at, joinTick);
                return homeShard(it.node);
            });
        clearMarks();
    }

    /** Move @p node to gateway @p target. Off its native gateway,
     *  the node joins @p target's guest list. */
    void
    rehome(uint32_t node, uint32_t target)
    {
        mark(node); // its items still sit in the OLD shard
        _slabs.gateway()[node] = target;
        if (_topo.gatewayOf(node) != target)
            _guests[target].push_back(node);
        ++_chaosLog.migratedNodes;
    }

    /** @p gateway restarted: its displaced natives come home. */
    void
    failBack(uint32_t gateway, uint64_t end)
    {
        ++_chaosLog.gatewayRestarts;
        size_t moved = 0;
        const uint64_t last = _topo.nodeEndOf(gateway);
        for (uint64_t n = _topo.firstNodeOf(gateway); n < last; ++n) {
            if (_slabs.gateway()[n] != gateway) {
                rehome(static_cast<uint32_t>(n), gateway);
                ++_chaosLog.failbackNodes;
                ++moved;
            }
        }
        recordEpisode(end, "restart", gateway, moved);
    }

    /** @p gateway crashed: everyone it serves moves to the next
     *  live gateway in ring order, if there is one. */
    void
    failOver(uint32_t gateway, uint64_t end)
    {
        ++_chaosLog.gatewayCrashes;
        const uint64_t target = _sched.failoverTarget(gateway);
        size_t moved = 0;
        if (target < _topo.gateways) {
            ++_chaosLog.failovers;
            const uint32_t t = static_cast<uint32_t>(target);
            // Guests move on first. Entries go stale when a node fails
            // back (and perhaps moves on again) and may repeat; a node
            // is a guest here only while its slab gateway says so.
            for (uint32_t node : std::exchange(_guests[gateway], {})) {
                if (_slabs.gateway()[node] == gateway) {
                    rehome(node, t);
                    ++moved;
                }
            }
            const uint64_t last = _topo.nodeEndOf(gateway);
            for (uint64_t n = _topo.firstNodeOf(gateway); n < last;
                 ++n) {
                if (_slabs.gateway()[n] == gateway) {
                    rehome(static_cast<uint32_t>(n), t);
                    ++moved;
                }
            }
        }
        recordEpisode(end, "crash", gateway, moved);
    }

    /** Gateway transitions entering window @p next: restarts first
     *  (fail-back), then crashes (failover), then one re-key pass
     *  moves every touched node's pending items into its new home
     *  shard. */
    void
    failover(uint64_t next, uint64_t end)
    {
        _sched.step(next, _restartedGw, _crashedGw);
        for (uint32_t g : _restartedGw)
            failBack(g, end);
        for (uint32_t g : _crashedGw)
            failOver(g, end);
        if (_markedList.empty())
            return;
        // Budgets re-home lazily: the target gateway's and phones'
        // window stamps reset them on first touch, so the barrier
        // only moves the items. Transport items pay the bounded
        // handover cost (§14-style priced cutover); self-injects
        // move free.
        _chaosLog.rekeyedItems += _queue.rekeyIf(
            _srcShards,
            [this](const WheelItem &it) { return _marked[it.node] != 0; },
            [this](WheelItem &it) {
                if (it.kind != kInject) {
                    it.at += _chaos.handoverCostUs;
                    _handoverUs += _chaos.handoverCostUs;
                }
                return homeShard(it.node);
            });
        clearMarks();
    }

    // --- Merge and report ------------------------------------------

    /** Plain sums and maxima, in any order: the totals are
     *  shard-grouping-independent. */
    Totals
    merge()
    {
        Totals t;
        t.arch.resize(_classes.size());
        t.retryHist.assign(_retryHist[0].size(), 0);
        const auto add = [](ArchetypeStats &to,
                            const ArchetypeStats &from) {
            to.completed += from.completed;
            to.misses += from.misses;
            to.latencySumUs += from.latencySumUs;
            to.latencyMaxUs = std::max(to.latencyMaxUs, from.latencyMaxUs);
            to.fallbacks += from.fallbacks;
            to.suppressed += from.suppressed;
            to.arqAbandoned += from.arqAbandoned;
        };
        ShardStats &total = t.shard;
        for (size_t s = 0; s < _shards; ++s) {
            for (size_t a = 0; a < _classes.size(); ++a) {
                add(t.arch[a], _archStats[s][a]);
                add(t.all, _archStats[s][a]);
            }
            const ShardStats &ss = _shardStats[s];
            total.deferred += ss.deferred;
            total.cloudThrottled += ss.cloudThrottled;
            total.phoneBusyUs += ss.phoneBusyUs;
            total.gatewayBusyUs += ss.gatewayBusyUs;
            total.radioBusyUs += ss.radioBusyUs;
            total.transfers += ss.transfers;
            total.spanMaxUs = std::max(total.spanMaxUs, ss.spanMaxUs);
            total.items += ss.items;
            total.gatewayLocal += ss.gatewayLocal;
            total.blackoutFallbacks += ss.blackoutFallbacks;
            total.replayed += ss.replayed;
            total.faultDelivered += ss.faultDelivered;
            total.faultAttempts += ss.faultAttempts;
            for (size_t r = 0; r < t.retryHist.size(); ++r)
                t.retryHist[r] += _retryHist[s][r];
            t.obs.admittedPhone += _obs[s].admittedPhone;
            t.obs.deferredPhone += _obs[s].deferredPhone;
            for (uint32_t b = 0; b < StatsRegistry::kHistogramBuckets;
                 ++b)
                t.obs.latencyBuckets[b] += _obs[s].latencyBuckets[b];
        }
        return t;
    }

    void
    reportRows(const Totals &t, FleetReport &report)
    {
        report.policy = "tiered-fcfs";
        report.nodeCount = static_cast<size_t>(_config.nodes);
        const ShardStats &total = t.shard;
        const double span_us = static_cast<double>(total.spanMaxUs);
        // Occupancy and utilization are per phone cell: the
        // population path has no single shared radio to saturate.
        const double cell_us =
            span_us * static_cast<double>(_topo.phones);
        report.spanMs = span_us / 1000.0;
        report.radioBusyMs =
            static_cast<double>(total.radioBusyUs) / 1000.0;
        report.radioOccupancy =
            span_us > 0.0
                ? static_cast<double>(total.radioBusyUs) / cell_us
                : 0.0;
        report.transfers = static_cast<size_t>(total.transfers);
        report.aggregatorBusyMs =
            static_cast<double>(total.phoneBusyUs) / 1000.0;
        report.aggregatorUtilization =
            span_us > 0.0
                ? static_cast<double>(total.phoneBusyUs) / cell_us
                : 0.0;
        report.aggregatorCpuShare =
            _config.tiers.phone.maxCpuUtilization;
        report.aggregatorPowerUw = 0.0;
        report.aggregatorLifetimeHours = 0.0;
        for (size_t a = 0; a < _classes.size(); ++a) {
            const PopulationArchetype &cls = _classes[a];
            const ArchetypeStats &st = t.arch[a];
            FleetNodeReportRow row;
            row.symbol = cls.symbol;
            row.process = cls.process;
            row.admission = "tiered";
            row.sensorCells = cls.sensorCells;
            row.totalCells = cls.totalCells;
            row.accuracy = cls.accuracy;
            row.eventsPerSecond =
                1e6 / static_cast<double>(cls.periodUs);
            // Lifetime: battery over steady-state event energy draw.
            const double joules_per_sec =
                static_cast<double>(cls.eventEnergyNj) * 1e-9 *
                row.eventsPerSecond;
            row.sensorLifetimeHours =
                joules_per_sec > 0.0
                    ? static_cast<double>(cls.batteryNj) * 1e-9 /
                          joules_per_sec / 3600.0
                    : 0.0;
            row.events = static_cast<size_t>(st.completed);
            row.deadlineMisses = static_cast<size_t>(st.misses);
            row.meanLatencyMs =
                st.completed > 0
                    ? static_cast<double>(st.latencySumUs) /
                          static_cast<double>(st.completed) / 1000.0
                    : 0.0;
            row.worstLatencyMs =
                static_cast<double>(st.latencyMaxUs) / 1000.0;
            row.aggregatorPowerUw = 0.0;
            row.degradedEvents = static_cast<size_t>(st.arqAbandoned);
            report.totalEvents += row.events;
            report.totalDeadlineMisses += row.deadlineMisses;
            report.rows.push_back(std::move(row));
        }
    }

    void
    reportTiers(const Totals &t, TiersReport &tiers)
    {
        tiers.enabled = true;
        tiers.sensorsPerPhone = _topo.sensorsPerPhone;
        tiers.phonesPerGateway = _topo.phonesPerGateway;
        tiers.phones = static_cast<size_t>(_topo.phones);
        tiers.gateways = static_cast<size_t>(_topo.gateways);
        tiers.windows = static_cast<size_t>(_windows);
        tiers.deferredUplinks = static_cast<size_t>(t.shard.deferred);
        tiers.cloudThrottled =
            static_cast<size_t>(t.shard.cloudThrottled);
        tiers.phoneBusyMs =
            static_cast<double>(t.shard.phoneBusyUs) / 1000.0;
        tiers.gatewayBusyMs =
            static_cast<double>(t.shard.gatewayBusyUs) / 1000.0;
        tiers.localFallbacks = static_cast<size_t>(t.all.fallbacks);
        tiers.dutySuppressed = static_cast<size_t>(t.all.suppressed);
    }

    /** The barrier's log plus what the shards counted. Every
     *  deferral is a backoff retry. */
    void
    reportChaos(const Totals &t, ChaosReport &cr)
    {
        cr = std::move(_chaosLog);
        cr.enabled = true;
        cr.retries = static_cast<size_t>(t.shard.deferred);
        cr.replayedEvents = static_cast<size_t>(t.shard.replayed);
        cr.gatewayLocalEvents = static_cast<size_t>(t.shard.gatewayLocal);
        cr.blackoutFallbacks =
            static_cast<size_t>(t.shard.blackoutFallbacks);
        cr.handoverMs = static_cast<double>(_handoverUs) / 1000.0;
        const uint16_t *streak = _slabs.outageStreak();
        cr.maxOutageStreak =
            *std::max_element(streak, streak + _config.nodes);
    }

    void
    reportRobustness(const Totals &t, RobustnessReport &rob)
    {
        const uint64_t abandoned = t.all.arqAbandoned;
        rob.enabled = true;
        rob.packetsOffered =
            static_cast<size_t>(t.shard.faultDelivered + abandoned);
        rob.packetsDelivered =
            static_cast<size_t>(t.shard.faultDelivered);
        rob.packetsAbandoned = static_cast<size_t>(abandoned);
        rob.attempts = static_cast<size_t>(t.shard.faultAttempts);
        // Same trailing-trim convention as the detailed path: the
        // histogram ends at the deepest retry actually used.
        size_t depth = t.retryHist.size();
        while (depth > 0 && t.retryHist[depth - 1] == 0)
            --depth;
        rob.retryHistogram.assign(
            t.retryHist.begin(),
            t.retryHist.begin() + static_cast<ptrdiff_t>(depth));
        rob.degradedEvents = static_cast<size_t>(abandoned);
    }

    /**
     * population.* stats (DESIGN.md §17), all Stable scope and
     * published once from the merged totals, so snapshots stay
     * byte-identical at any shards x workers combination. A gateway
     * admission is a completion, and every deferral not at the
     * phone happened at the gateway. The chaos counters are
     * registered by every run and stay zero without a schedule.
     */
    void
    publishStats(const Totals &t, const FleetReport &report)
    {
        StatsRegistry &reg = StatsRegistry::instance();
        const auto add = [&reg](const char *name, uint64_t value) {
            reg.add(reg.registerCounter(std::string("population.") +
                                        name),
                    value);
        };
        add("admitted_phone", t.obs.admittedPhone);
        add("admitted_gateway", t.all.completed);
        add("deferred_phone", t.obs.deferredPhone);
        add("deferred_gateway", t.shard.deferred - t.obs.deferredPhone);
        add("completed", report.totalEvents);
        add("deadline_misses", report.totalDeadlineMisses);
        add("local_fallbacks", report.tiers.localFallbacks);
        add("duty_suppressed", report.tiers.dutySuppressed);
        add("cloud_throttled", t.shard.cloudThrottled);
        add("wheel_items", t.shard.items);
        add("transfers", t.shard.transfers);
        add("chaos_failovers", report.chaos.failovers);
        add("chaos_migrations", report.chaos.migratedNodes);
        add("chaos_retries", report.chaos.retries);
        reg.mergeHistogram(
            reg.registerHistogram("population.latency_us"),
            t.all.latencySumUs, t.obs.latencyBuckets,
            StatsRegistry::kHistogramBuckets);
    }

    const PopulationFleetConfig &_config;
    const std::vector<PopulationArchetype> _classes;
    const TierTopology _topo;
    const TierBudgets _budgets;
    const uint64_t _window;
    /** A shard owns whole gateways; more shards than gateways (or
     *  nodes) would only add empty wheels. */
    const size_t _shards;
    ShardedEventQueue _queue;
    Arena _arena{size_t(1) << 20};
    NodeSlabs _slabs;
    const bool _collect;

    // Chaos layer (DESIGN.md §18): the schedule advances only at
    // barriers; drains only read it.
    const ChaosConfig _chaos;
    ChaosSchedule _sched;
    /** Sensor-uplink faults: the detailed path's Gilbert-Elliott /
     *  ARQ knobs, hash-draw edition. */
    const LinkFaultModel _link;

    // Barrier-owned state.
    std::vector<ChurnEvent> _churnAgenda; ///< sorted (window, node)
    size_t _churnCursor = 0;
    /** Transitions, migrations and churn as the barrier applied
     *  them; reportChaos() adds what the shards counted. */
    ChaosReport _chaosLog;
    uint64_t _handoverUs = 0;
    /** Nodes the current barrier pass acts on; sized on first use,
     *  so a run that never marks allocates no per-node state. */
    std::vector<uint8_t> _marked;
    std::vector<uint32_t> _markedList;
    /** Shards holding the marked nodes' items: every item of node n
     *  lives in n's home shard, so a pass scans only these wheels. */
    std::vector<uint8_t> _srcShards;
    /** Per gateway, the nodes moved onto it from elsewhere since
     *  its last failover; entries go stale when a node moves on. */
    std::vector<std::vector<uint32_t>> _guests;
    std::vector<uint32_t> _restartedGw;
    std::vector<uint32_t> _crashedGw;
    uint64_t _windows = 0;

    // Tier state: per-phone and per-gateway scalars, each touched
    // only by the shard that owns the gateway above it. Budget
    // resets are lazy (stamped with the window index) so the
    // barrier has no work to do and no cross-shard writes exist.
    std::vector<uint64_t> _cellFreeAt;
    std::vector<uint64_t> _phoneBudgetUs;
    std::vector<uint64_t> _phoneStamp;
    std::vector<uint64_t> _gatewayAirUs;
    std::vector<uint64_t> _gatewayQuota;
    std::vector<uint64_t> _gatewayStamp;

    // Per-shard accumulators, folded by merge().
    std::vector<std::vector<ArchetypeStats>> _archStats;
    std::vector<ShardStats> _shardStats;
    std::vector<std::vector<uint64_t>> _retryHist;
    std::vector<ShardObs> _obs;
};

} // namespace

NodeSlabs::NodeSlabs(Arena &arena, uint64_t count, size_t archetypes)
    : _count(count)
{
    xproAssert(count > 0, "slabs need at least one node");
    xproAssert(archetypes > 0 && archetypes <= UINT16_MAX,
               "archetype count %zu out of range", archetypes);
    const size_t n = static_cast<size_t>(count);
    _archetype = arena.alloc<uint16_t>(n);
    _battery = arena.alloc<uint64_t>(n);
    _outageStreak = arena.alloc<uint16_t>(n);
    _gateway = arena.alloc<uint32_t>(n);
    _churnJoin = arena.alloc<uint32_t>(n);
    _linkBad = arena.alloc<uint8_t>(n);
    for (size_t i = 0; i < n; ++i)
        _archetype[i] = static_cast<uint16_t>(i % archetypes);
    std::memset(_battery, 0, n * sizeof(uint64_t));
    std::memset(_outageStreak, 0, n * sizeof(uint16_t));
    std::memset(_gateway, 0, n * sizeof(uint32_t));
    // ~0 = "never churns"; the chaos setup overwrites churners.
    std::memset(_churnJoin, 0xFF, n * sizeof(uint32_t));
    std::memset(_linkBad, 0, n);
}

std::vector<PopulationArchetype>
syntheticArchetypes()
{
    // Six classes with the cost spread of the paper's test cases:
    // heavy in-sensor ECG cuts through light accelerometer
    // offloads, event rates from 1/s to 8/s. Gateway hops ride a
    // fast backhaul (WiFi/wired), so their airtime is an order of
    // magnitude below the in-cell sensor uplinks.
    std::vector<PopulationArchetype> archetypes(6);
    const char *symbols[6] = {"C1", "C2", "C3", "C4", "C5", "C6"};
    const char *processes[6] = {"90nm", "45nm", "130nm",
                                "90nm", "45nm", "130nm"};
    const uint64_t sensorUs[6] = {4000, 2500, 1500, 3000, 1000, 2000};
    const uint64_t phoneUs[6] = {350, 250, 500, 150, 400, 300};
    const uint64_t uplinkUs[6] = {600, 450, 800, 300, 700, 500};
    const uint64_t gatewayUs[6] = {40, 30, 45, 20, 35, 30};
    const uint64_t energyNj[6] = {90000, 70000, 50000,
                                  80000, 40000, 60000};
    const uint64_t batteryNj[6] = {2000000000ULL, 2000000000ULL,
                                   1500000000ULL, 2500000000ULL,
                                   1000000000ULL, 2000000000ULL};
    const uint64_t periodUs[6] = {500000,  1000000, 250000,
                                  500000, 125000,  1000000};
    const size_t sensorCells[6] = {5, 4, 3, 6, 2, 4};
    const size_t totalCells[6] = {9, 9, 8, 9, 7, 8};
    const double accuracy[6] = {0.93, 0.91, 0.88,
                                0.95, 0.86, 0.90};
    for (size_t i = 0; i < 6; ++i) {
        PopulationArchetype &a = archetypes[i];
        a.symbol = symbols[i];
        a.process = processes[i];
        a.sensorComputeUs = sensorUs[i];
        a.phoneComputeUs = phoneUs[i];
        a.uplinkAirtimeUs = uplinkUs[i];
        a.gatewayAirtimeUs = gatewayUs[i];
        a.eventEnergyNj = energyNj[i];
        a.batteryNj = batteryNj[i];
        a.periodUs = periodUs[i];
        a.sensorCells = sensorCells[i];
        a.totalCells = totalCells[i];
        a.accuracy = accuracy[i];
    }
    return archetypes;
}

PopulationFleetResult
runPopulationFleet(const PopulationFleetConfig &config)
{
    PopulationSim sim(config);
    sim.run();
    return sim.result();
}

} // namespace xpro
