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
    // Chaos-layer counters (all zero when chaos is off).
    uint64_t chaosRetries = 0;      ///< backoff re-schedules
    uint64_t gatewayLocal = 0;      ///< completed sans cloud
    uint64_t blackoutFallbacks = 0; ///< no reachable gateway
    uint64_t replayed = 0;          ///< injects sensed late
    // Fault-profile (ARQ) counters (zero when faults are off).
    uint64_t faultOffered = 0;
    uint64_t faultDelivered = 0;
    uint64_t faultAbandoned = 0;
    uint64_t faultAttempts = 0;
};

/**
 * population.* stats (DESIGN.md section 17). All Stable scope: each
 * is a pure function of the configuration, so snapshots stay
 * byte-identical at any shards x workers combination (tested in
 * test_stats_registry under the obs label). The per-event ones
 * (latency histogram, per-tier admissions/deferrals) are written to
 * per-shard StatsSlabs on the hot path; run-level totals are added
 * straight to the registry once the shard merge is done.
 */
struct PopStatIds
{
    StatId latencyUs;        ///< histogram: inject -> cloud, us
    StatId admittedPhone;    ///< uplinks the phone tier admitted
    StatId admittedGateway;  ///< events the gateway tier admitted
    StatId deferredPhone;    ///< uplinks pushed to the next window
    StatId deferredGateway;  ///< gateway hops pushed back
    StatId completed;
    StatId deadlineMisses;
    StatId localFallbacks;
    StatId dutySuppressed;
    StatId cloudThrottled;
    StatId wheelItems;
    StatId transfers;
    StatId chaosFailovers;  ///< gateway deaths with a live target
    StatId chaosMigrations; ///< node re-homings (incl. fail-backs)
    StatId chaosRetries;    ///< backoff retries scheduled
};

const PopStatIds &
popStatIds()
{
    static const PopStatIds ids = [] {
        StatsRegistry &reg = StatsRegistry::instance();
        PopStatIds v;
        v.latencyUs = reg.registerHistogram("population.latency_us");
        v.admittedPhone =
            reg.registerCounter("population.admitted_phone");
        v.admittedGateway =
            reg.registerCounter("population.admitted_gateway");
        v.deferredPhone =
            reg.registerCounter("population.deferred_phone");
        v.deferredGateway =
            reg.registerCounter("population.deferred_gateway");
        v.completed = reg.registerCounter("population.completed");
        v.deadlineMisses =
            reg.registerCounter("population.deadline_misses");
        v.localFallbacks =
            reg.registerCounter("population.local_fallbacks");
        v.dutySuppressed =
            reg.registerCounter("population.duty_suppressed");
        v.cloudThrottled =
            reg.registerCounter("population.cloud_throttled");
        v.wheelItems = reg.registerCounter("population.wheel_items");
        v.transfers = reg.registerCounter("population.transfers");
        v.chaosFailovers =
            reg.registerCounter("population.chaos_failovers");
        v.chaosMigrations =
            reg.registerCounter("population.chaos_migrations");
        v.chaosRetries =
            reg.registerCounter("population.chaos_retries");
        return v;
    }();
    return ids;
}

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
    _dutyLevel = arena.alloc<uint8_t>(n);
    _eventCursor = arena.alloc<uint32_t>(n);
    _battery = arena.alloc<uint64_t>(n);
    _outageStreak = arena.alloc<uint16_t>(n);
    _gateway = arena.alloc<uint32_t>(n);
    _churnLeave = arena.alloc<uint32_t>(n);
    _churnJoin = arena.alloc<uint32_t>(n);
    _linkBad = arena.alloc<uint8_t>(n);
    for (size_t i = 0; i < n; ++i)
        _archetype[i] = static_cast<uint16_t>(i % archetypes);
    std::memset(_dutyLevel, 0, n);
    std::memset(_eventCursor, 0, n * sizeof(uint32_t));
    std::memset(_battery, 0, n * sizeof(uint64_t));
    std::memset(_outageStreak, 0, n * sizeof(uint16_t));
    std::memset(_gateway, 0, n * sizeof(uint32_t));
    // ~0 = "never churns"; the chaos setup overwrites churners.
    std::memset(_churnLeave, 0xFF, n * sizeof(uint32_t));
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
    xproAssert(config.nodes > 0, "population fleet needs nodes");
    xproAssert(config.nodes <= UINT32_MAX,
               "node ids must fit the wheel's 32-bit field");
    xproAssert(config.eventsPerNode > 0 &&
                   config.eventsPerNode <= kEventMask,
               "events per node out of range");
    xproAssert(config.windowUs > 0, "need a nonzero sync window");

    const std::vector<PopulationArchetype> classes =
        config.archetypes.empty() ? syntheticArchetypes()
                                  : config.archetypes;
    for (const PopulationArchetype &a : classes) {
        xproAssert(a.sensorComputeUs > 0 && a.uplinkAirtimeUs > 0 &&
                       a.gatewayAirtimeUs > 0 && a.periodUs > 0,
                   "archetype '%s' needs positive integer costs",
                   a.symbol.c_str());
    }

    const TierTopology topo =
        TierTopology::build(config.nodes, config.tiers);
    const TierBudgets budgets =
        TierBudgets::build(config.tiers, topo, config.windowUs);
    const uint64_t window = config.windowUs;

    // A shard owns whole gateways; more shards than gateways (or
    // nodes) would only add empty wheels.
    size_t shards = config.shards > 0 ? config.shards : 1;
    shards = std::min<size_t>(
        shards, static_cast<size_t>(
                    std::min<uint64_t>(topo.gateways, config.nodes)));
    ShardedEventQueue queue(shards, window);

    // SoA node state: nine parallel slabs, one arena.
    Arena arena(size_t(1) << 20);
    NodeSlabs slabs(arena, config.nodes, classes.size());
    for (uint64_t n = 0; n < config.nodes; ++n) {
        slabs.battery()[n] = classes[slabs.archetype()[n]].batteryNj;
        slabs.gateway()[n] =
            static_cast<uint32_t>(topo.gatewayOf(n));
    }

    // Chaos layer (DESIGN.md §18). Everything below is a pure
    // function of the configuration: the schedule advances only at
    // barriers (single-threaded) and shard drains only read the
    // frozen down map, so chaos runs keep the shards x workers
    // byte-identity. With chaos disabled every hot-path check below
    // is guarded off and the run reproduces the legacy bytes.
    const ChaosConfig &chaos = config.chaos;
    const bool chaosOn = chaos.enabled;
    if (chaosOn)
        chaos.validate();
    ChaosSchedule sched(chaos, topo.gateways);
    const uint8_t *downMap = sched.downMap().data();

    // Shared fault profile on the sensor uplink (the detailed
    // path's Gilbert-Elliott/ARQ knobs, hash-draw edition).
    const FaultProfile &faults = config.faults;
    if (faults.enabled)
        faults.validate();
    const LinkFaultModel link = LinkFaultModel::build(faults);
    const auto faultDraw = [&](uint64_t node, uint64_t event,
                               uint32_t attempt, uint64_t salt) {
        uint64_t h = mix64(link.seed ^
                           (node * 0x9e3779b97f4a7c15ULL));
        h = mix64(h ^ (event * 0x100000001b3ULL) ^
                  (uint64_t(attempt) << 40) ^ salt);
        return h >> 11; // uniform in [0, 2^53)
    };

    // Churn assignments, precomputed into slabs plus a sorted
    // boundary agenda the barrier walks with one cursor.
    struct ChurnEvent
    {
        uint64_t window;
        uint32_t node;
        uint8_t leave;
    };
    std::vector<ChurnEvent> churnAgenda;
    if (chaosOn && chaos.churnFraction > 0.0) {
        for (uint64_t n = 0; n < config.nodes; ++n) {
            uint64_t leave = 0, join = 0;
            if (!sched.churnWindows(n, leave, join))
                continue;
            slabs.churnLeave()[n] = static_cast<uint32_t>(leave);
            slabs.churnJoin()[n] = static_cast<uint32_t>(join);
            churnAgenda.push_back(
                {leave, static_cast<uint32_t>(n), 1});
            churnAgenda.push_back(
                {join, static_cast<uint32_t>(n), 0});
        }
        std::sort(churnAgenda.begin(), churnAgenda.end(),
                  [](const ChurnEvent &a, const ChurnEvent &b) {
                      if (a.window != b.window)
                          return a.window < b.window;
                      return a.node < b.node;
                  });
    }
    size_t churnCursor = 0;

    // Barrier-owned chaos bookkeeping.
    struct ChaosTotals
    {
        uint64_t gatewayCrashes = 0;
        uint64_t gatewayRestarts = 0;
        uint64_t failovers = 0;
        uint64_t migratedNodes = 0;
        uint64_t failbackNodes = 0;
        uint64_t rekeyedItems = 0;
        uint64_t droppedEvents = 0;
        uint64_t parkedInjects = 0;
        uint64_t churnLeaves = 0;
        uint64_t churnJoins = 0;
        uint64_t gatewayDownWindows = 0;
        uint64_t cloudDownWindows = 0;
        uint64_t handoverUs = 0;
        uint64_t droppedEpisodes = 0;
    };
    ChaosTotals ct;
    constexpr size_t kMaxEpisodes = 256;
    std::vector<ChaosEpisode> chaosEpisodes;
    std::vector<uint8_t> migratedNow(chaosOn ? config.nodes : 0, 0);
    std::vector<uint8_t> leavingNow(chaosOn ? config.nodes : 0, 0);
    // Which shards can hold items the next drop/re-key pass is
    // after: every item of node n lives in n's serving-gateway
    // shard, so the barrier scans only the touched source wheels.
    std::vector<uint8_t> srcShards(chaosOn ? shards : 0, 0);
    std::vector<uint32_t> migratedList;
    std::vector<uint32_t> leaverList;
    std::vector<uint32_t> displaced; ///< nodes away from native
    std::vector<uint32_t> restartedGw;
    std::vector<uint32_t> crashedGw;
    const auto recordEpisode = [&](uint64_t at_us, const char *kind,
                                   uint64_t gateway, size_t nodes) {
        if (chaosEpisodes.size() < kMaxEpisodes)
            chaosEpisodes.push_back(
                {static_cast<double>(at_us) / 1000.0, kind,
                 static_cast<size_t>(gateway), nodes});
        else
            ++ct.droppedEpisodes;
    };

    // Tier state: per-phone and per-gateway scalars, each touched
    // only by the shard that owns the gateway above it. Budget
    // resets are lazy (stamped with the window index) so the
    // barrier has no work to do and no cross-shard writes exist.
    const size_t phones = static_cast<size_t>(topo.phones);
    const size_t gateways = static_cast<size_t>(topo.gateways);
    std::vector<uint64_t> cellFreeAt(phones, 0);
    std::vector<uint64_t> phoneBudgetUs(phones, 0);
    std::vector<uint64_t> phoneStamp(phones, ~uint64_t(0));
    std::vector<uint64_t> gatewayAirUs(gateways, 0);
    std::vector<uint64_t> gatewayQuota(gateways, 0);
    std::vector<uint64_t> gatewayStamp(gateways, ~uint64_t(0));

    std::vector<std::vector<ArchetypeStats>> archStats(
        shards, std::vector<ArchetypeStats>(classes.size()));
    std::vector<ShardStats> shardStats(shards);
    // retryHist[s][a-1] = packets delivered on attempt a (per-shard,
    // merged by addition like every other accumulator).
    std::vector<std::vector<uint64_t>> retryHist(
        shards, std::vector<uint64_t>(
                    link.enabled ? link.maxRetries + 1 : 0, 0));

    // Telemetry: plain per-shard accumulators — hot-path cost is
    // an ordinary increment into a shard-owned struct, no slab or
    // registry indirection — folded into the global registry once
    // after the run. Folding is pure addition, so the merged totals
    // are independent of the shard grouping (the stable-snapshot
    // contract).
    struct ShardObs {
        uint64_t admittedPhone = 0;
        uint64_t admittedGateway = 0;
        uint64_t deferredPhone = 0;
        uint64_t deferredGateway = 0;
        uint64_t latencySumUs = 0;
        uint64_t
            latencyBuckets[StatsRegistry::kHistogramBuckets] = {};
    };
    const bool collect = kStatsEnabled && config.collectStats;
    const PopStatIds &sids = popStatIds();
    std::vector<ShardObs> obsStats(shards);

    const auto phaseOf = [&](uint64_t node) {
        const PopulationArchetype &a =
            classes[slabs.archetype()[node]];
        return mix64(config.seed + node) % a.periodUs;
    };

    // Seed one pending Inject per node (the event cursor's
    // invariant: a node always has exactly one inject in flight
    // until its last event).
    for (uint64_t n = 0; n < config.nodes; ++n) {
        const size_t s =
            static_cast<size_t>(topo.gatewayOf(n)) % shards;
        queue.shard(s).schedule(
            {phaseOf(n), static_cast<uint32_t>(n), kInject,
             packData(0, 0)});
    }

    const auto deferOrFallback =
        [&](size_t s, const WheelItem &item, uint64_t now) {
            const uint64_t event = item.data & kEventMask;
            const uint32_t defers = item.data >> kEventBits;
            ArchetypeStats &arch =
                archStats[s][slabs.archetype()[item.node]];
            if (defers >= budgets.maxDefers) {
                // Out of patience: classify on the sensor.
                ++arch.fallbacks;
                if (slabs.outageStreak()[item.node] < UINT16_MAX)
                    ++slabs.outageStreak()[item.node];
                return;
            }
            ++shardStats[s].deferred;
            if (collect)
                ++(item.kind == kUplink
                       ? obsStats[s].deferredPhone
                       : obsStats[s].deferredGateway);
            uint64_t next;
            if (chaosOn) {
                // Chaos runs retry with deterministic exponential
                // backoff + jitter instead of bare window-parking:
                // the delay is a pure function of the item, so it is
                // the same in any shard grouping. A retry never
                // lands before the next window boundary — the tier
                // budgets it ran out of only refresh there, so an
                // intra-window retry would burn a defer for nothing.
                uint64_t delay = chaos.retryBackoffBaseUs << defers;
                if (chaos.retryJitterUs > 0)
                    delay += mix64(chaos.seed ^
                                   (uint64_t(item.node) *
                                    0x9e3779b97f4a7c15ULL) ^
                                   (uint64_t(item.kind) << 48) ^
                                   item.data) %
                             chaos.retryJitterUs;
                next = std::max(now + delay,
                                (now / window + 1) * window);
                ++shardStats[s].chaosRetries;
            } else {
                next = (now / window + 1) * window;
            }
            queue.shard(s).schedule({next, item.node, item.kind,
                                     packData(event, defers + 1)});
        };

    const auto onInject = [&](size_t s, const WheelItem &item) {
        const uint64_t n = item.node;
        const uint64_t event = item.data & kEventMask;
        const PopulationArchetype &a =
            classes[slabs.archetype()[n]];
        slabs.eventCursor()[n] =
            static_cast<uint32_t>(event + 1);
        if (chaosOn && item.at > phaseOf(n) + event * a.periodUs)
            ++shardStats[s].replayed; // sensed late: churn replay
        if (event + 1 < config.eventsPerNode) {
            // A replayed inject (parked past its analytic time by a
            // churn absence) pushes the successor to at+1, so a
            // rejoining node replays its backlog one tick apart. In
            // chaos-free runs item.at IS the analytic time and the
            // clamp never fires.
            uint64_t next_at =
                phaseOf(n) + (event + 1) * a.periodUs;
            if (next_at <= item.at)
                next_at = item.at + 1;
            queue.shard(s).schedule(
                {next_at, item.node, kInject,
                 packData(event + 1, 0)});
        }
        uint64_t &battery = slabs.battery()[n];
        if (battery < a.eventEnergyNj) {
            // Battery exhausted: the node goes dark.
            if (slabs.outageStreak()[n] < UINT16_MAX)
                ++slabs.outageStreak()[n];
            return;
        }
        battery -= a.eventEnergyNj;
        const uint8_t band = dutyBandFor(battery, a.batteryNj);
        slabs.dutyLevel()[n] = band;
        if (!dutyTransmits(kDutyBands[band], event)) {
            ++archStats[s][slabs.archetype()[n]].suppressed;
            return;
        }
        queue.shard(s).schedule(
            {item.at + a.sensorComputeUs, item.node, kUplink,
             packData(event, 0)});
    };

    const auto onUplink = [&](size_t s, const WheelItem &item) {
        const uint64_t n = item.node;
        const PopulationArchetype &a =
            classes[slabs.archetype()[n]];
        if (chaosOn && downMap[slabs.gateway()[n]]) {
            // Bottom of the degradation ladder: the node's serving
            // gateway is down and no failover target existed, so the
            // event is classified on the sensor (§16 duty bands keep
            // gating the stream; PR 5 outage semantics keep the
            // streak counting).
            ArchetypeStats &arch =
                archStats[s][slabs.archetype()[n]];
            ++arch.fallbacks;
            ++shardStats[s].blackoutFallbacks;
            if (slabs.outageStreak()[n] < UINT16_MAX)
                ++slabs.outageStreak()[n];
            return;
        }
        const size_t phone =
            static_cast<size_t>(topo.phoneOf(n));
        const uint64_t w = item.at / window;
        if (phoneStamp[phone] != w) {
            phoneStamp[phone] = w;
            phoneBudgetUs[phone] = budgets.phoneCpuUsPerWindow;
        }
        if (phoneBudgetUs[phone] < a.phoneComputeUs) {
            deferOrFallback(s, item, item.at);
            return;
        }
        phoneBudgetUs[phone] -= a.phoneComputeUs;
        if (collect)
            ++obsStats[s].admittedPhone;
        // Bounded stop-and-wait ARQ on the faulty uplink: per-packet
        // loss and state-flip draws are stateless hashes, the
        // Gilbert-Elliott state itself lives in a node slab (only
        // this shard touches it). Every attempt occupies the cell
        // channel; timeouts hold it while the sensor waits for the
        // missing ACK. Fault-free runs take attempts == 1 and the
        // arithmetic below collapses to the legacy expressions.
        uint64_t attempts = 1;
        uint64_t backoffWaitUs = 0;
        bool delivered = true;
        if (link.enabled) {
            const uint64_t event = item.data & kEventMask;
            bool bad = slabs.linkBad()[n] != 0;
            const bool outage = faults.inOutage(Time::micros(
                static_cast<double>(item.at)));
            delivered = false;
            attempts = 0;
            for (uint32_t t = 0; t <= link.maxRetries; ++t) {
                ++attempts;
                const bool lost =
                    outage || faultDraw(n, event, t, 0) <
                                  (bad ? link.lossBad53
                                       : link.lossGood53);
                if (faultDraw(n, event, t, 1) <
                    (bad ? link.badToGood53 : link.goodToBad53))
                    bad = !bad;
                if (!lost) {
                    delivered = true;
                    break;
                }
                if (t < link.maxRetries)
                    backoffWaitUs += link.backoffUs[t];
            }
            slabs.linkBad()[n] = bad ? 1 : 0;
            ShardStats &ss = shardStats[s];
            ++ss.faultOffered;
            ss.faultAttempts += attempts;
            if (delivered) {
                ++ss.faultDelivered;
                ++retryHist[s][attempts - 1];
            } else {
                ++ss.faultAbandoned;
            }
        }
        // Cell-local FCFS channel: one scalar per phone cell.
        const uint64_t airUs = attempts * a.uplinkAirtimeUs;
        const uint64_t start =
            std::max(item.at, cellFreeAt[phone]);
        cellFreeAt[phone] = start + airUs + backoffWaitUs;
        shardStats[s].radioBusyUs += airUs;
        if (!delivered) {
            // ARQ exhausted: refund the reserved phone compute (the
            // payload never arrived) and classify on the sensor —
            // the same degraded placement as the detailed path.
            phoneBudgetUs[phone] += a.phoneComputeUs;
            ArchetypeStats &arch =
                archStats[s][slabs.archetype()[n]];
            ++arch.fallbacks;
            ++arch.arqAbandoned;
            if (slabs.outageStreak()[n] < UINT16_MAX)
                ++slabs.outageStreak()[n];
            return;
        }
        shardStats[s].phoneBusyUs += a.phoneComputeUs;
        ++shardStats[s].transfers;
        queue.shard(s).schedule(
            {start + airUs + backoffWaitUs + a.phoneComputeUs,
             item.node, kGateway,
             packData(item.data & kEventMask,
                      item.data >> kEventBits)});
    };

    const auto onGateway = [&](size_t s, const WheelItem &item) {
        const uint64_t n = item.node;
        const PopulationArchetype &a =
            classes[slabs.archetype()[n]];
        // The serving gateway comes from the slab, not the static
        // topology: a chaos failover re-homes the node to a neighbor
        // gateway (identical to topo.gatewayOf until then).
        const size_t gateway =
            static_cast<size_t>(slabs.gateway()[n]);
        if (chaosOn && downMap[gateway]) {
            // Total blackout (no failover target existed when the
            // gateway died): sensor-local classification.
            ArchetypeStats &arch =
                archStats[s][slabs.archetype()[n]];
            ++arch.fallbacks;
            ++shardStats[s].blackoutFallbacks;
            if (slabs.outageStreak()[n] < UINT16_MAX)
                ++slabs.outageStreak()[n];
            return;
        }
        const uint64_t w = item.at / window;
        if (gatewayStamp[gateway] != w) {
            gatewayStamp[gateway] = w;
            gatewayAirUs[gateway] =
                budgets.gatewayAirtimeUsPerWindow;
            gatewayQuota[gateway] =
                budgets.cloudEventsPerGatewayPerWindow;
        }
        if (gatewayAirUs[gateway] < a.gatewayAirtimeUs) {
            deferOrFallback(s, item, item.at);
            return;
        }
        // Degradation rung 1: with the cloud unreachable the
        // gateway aggregates locally — no ingest quota consumed, no
        // throttling, the event still completes.
        const bool cloudDownNow =
            chaosOn && sched.cloudDown(w);
        if (!cloudDownNow && gatewayQuota[gateway] == 0) {
            ++shardStats[s].cloudThrottled;
            deferOrFallback(s, item, item.at);
            return;
        }
        gatewayAirUs[gateway] -= a.gatewayAirtimeUs;
        if (cloudDownNow)
            ++shardStats[s].gatewayLocal;
        else
            --gatewayQuota[gateway];
        shardStats[s].gatewayBusyUs += a.gatewayAirtimeUs;
        ++shardStats[s].transfers;
        const uint64_t completion = item.at + a.gatewayAirtimeUs;
        const uint64_t event = item.data & kEventMask;
        const uint64_t injectedAt =
            phaseOf(n) + event * a.periodUs;
        const uint64_t latency = completion - injectedAt;
        ArchetypeStats &arch =
            archStats[s][slabs.archetype()[n]];
        ++arch.completed;
        arch.latencySumUs += latency;
        arch.latencyMaxUs = std::max(arch.latencyMaxUs, latency);
        if (collect) {
            ShardObs &obs = obsStats[s];
            ++obs.admittedGateway;
            obs.latencySumUs += latency;
            ++obs.latencyBuckets[StatsRegistry::bucketOf(latency)];
        }
        if (latency > a.periodUs)
            ++arch.misses;
        shardStats[s].spanMaxUs =
            std::max(shardStats[s].spanMaxUs, completion);
        slabs.outageStreak()[n] = 0;
    };

    WorkerPool pool(config.workers);
    uint64_t windows = 0;
    queue.run(
        pool,
        [&](size_t s, const WheelItem &item) {
            ++shardStats[s].items;
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
        [&](uint64_t w, uint64_t end) {
            windows = w + 1;
            if (!chaosOn)
                return;
            // Downtime accounting for the window just drained; the
            // schedule still reflects it (transitions below enter
            // window w + 1).
            ct.gatewayDownWindows += sched.downGateways();
            if (sched.cloudDown(w))
                ++ct.cloudDownWindows;
            if (queue.pending() == 0)
                return; // nothing left to heal; skip transitions
            const uint64_t next = w + 1;
            if (sched.cloudDown(next) != sched.cloudDown(w))
                recordEpisode(end,
                              sched.cloudDown(next) ? "cloud-down"
                                                    : "cloud-up",
                              0, 0);

            // Node churn due at this boundary. The queue's contract
            // for departed nodes: in-flight transport items are
            // DROPPED (they can never complete), the self-inject is
            // REDIRECTED to the rejoin tick in the node's current
            // home shard.
            bool anyLeave = false;
            while (churnCursor < churnAgenda.size() &&
                   churnAgenda[churnCursor].window <= next) {
                const ChurnEvent &e = churnAgenda[churnCursor++];
                if (e.leave) {
                    leavingNow[e.node] = 1;
                    srcShards[static_cast<size_t>(
                                  slabs.gateway()[e.node]) %
                              shards] = 1;
                    leaverList.push_back(e.node);
                    anyLeave = true;
                    ++ct.churnLeaves;
                } else {
                    ++ct.churnJoins;
                }
            }
            if (anyLeave) {
                ct.droppedEvents += queue.dropIf(
                    srcShards,
                    [&](const WheelItem &it) {
                        return leavingNow[it.node] != 0 &&
                               it.kind != kInject;
                    });
                ct.parkedInjects += queue.rekeyIf(
                    srcShards,
                    [&](const WheelItem &it) {
                        return leavingNow[it.node] != 0;
                    },
                    [&](WheelItem &it) {
                        const uint64_t joinTick =
                            uint64_t(slabs.churnJoin()[it.node]) *
                            window;
                        if (it.at < joinTick)
                            it.at = joinTick;
                        return static_cast<size_t>(
                                   slabs.gateway()[it.node]) %
                               shards;
                    });
                for (uint32_t nId : leaverList)
                    leavingNow[nId] = 0;
                leaverList.clear();
                std::fill(srcShards.begin(), srcShards.end(), 0);
            }

            // Gateway transitions entering window w + 1. Restarts
            // first (fail-back), then crashes (failover), then one
            // re-key pass moves every touched node's pending items
            // into its new home shard.
            sched.step(next, restartedGw, crashedGw);
            migratedList.clear();
            const auto rehome = [&](uint32_t nId, uint32_t target) {
                srcShards[static_cast<size_t>(
                              slabs.gateway()[nId]) %
                          shards] = 1; // items sit in the OLD shard
                slabs.gateway()[nId] = target;
                ++ct.migratedNodes;
                if (!migratedNow[nId]) {
                    migratedNow[nId] = 1;
                    migratedList.push_back(nId);
                }
            };
            for (uint32_t g : restartedGw) {
                ++ct.gatewayRestarts;
                size_t moved = 0;
                for (uint32_t nId : displaced) {
                    if (topo.gatewayOf(nId) == g &&
                        slabs.gateway()[nId] != g) {
                        rehome(nId, g);
                        ++ct.failbackNodes;
                        ++moved;
                    }
                }
                recordEpisode(end, "restart", g, moved);
            }
            if (!restartedGw.empty()) {
                displaced.erase(
                    std::remove_if(
                        displaced.begin(), displaced.end(),
                        [&](uint32_t nId) {
                            return slabs.gateway()[nId] ==
                                   topo.gatewayOf(nId);
                        }),
                    displaced.end());
            }
            for (uint32_t g : crashedGw) {
                ++ct.gatewayCrashes;
                const uint64_t target = sched.failoverTarget(g);
                size_t moved = 0;
                if (target < topo.gateways) {
                    ++ct.failovers;
                    const uint32_t t =
                        static_cast<uint32_t>(target);
                    // Displaced guests parked on g move on first
                    // (before natives join the displaced list).
                    for (uint32_t nId : displaced) {
                        if (slabs.gateway()[nId] == g) {
                            rehome(nId, t);
                            ++moved;
                        }
                    }
                    const uint64_t first = topo.firstNodeOf(g);
                    const uint64_t last = topo.nodeEndOf(g);
                    for (uint64_t nId = first; nId < last; ++nId) {
                        if (slabs.gateway()[nId] == g) {
                            rehome(static_cast<uint32_t>(nId), t);
                            displaced.push_back(
                                static_cast<uint32_t>(nId));
                            ++moved;
                        }
                    }
                }
                recordEpisode(end, "crash", g, moved);
            }
            if (!migratedList.empty()) {
                // Budgets re-home lazily: the target gateway's and
                // phones' window stamps reset them on first touch,
                // so the barrier only moves the items. Transport
                // items pay the bounded handover cost (§14-style
                // priced cutover); self-injects move free.
                ct.rekeyedItems += queue.rekeyIf(
                    srcShards,
                    [&](const WheelItem &it) {
                        return migratedNow[it.node] != 0;
                    },
                    [&](WheelItem &it) {
                        if (it.kind != kInject) {
                            it.at += chaos.handoverCostUs;
                            ct.handoverUs += chaos.handoverCostUs;
                        }
                        return static_cast<size_t>(
                                   slabs.gateway()[it.node]) %
                               shards;
                    });
                for (uint32_t nId : migratedList)
                    migratedNow[nId] = 0;
                migratedList.clear();
                std::fill(srcShards.begin(), srcShards.end(), 0);
            }
        });

    // Merge: plain sums and maxima over the per-shard accumulators,
    // in either order — the totals are shard-grouping-independent.
    std::vector<ArchetypeStats> arch(classes.size());
    ShardStats total;
    std::vector<uint64_t> retryHistTotal(
        link.enabled ? link.maxRetries + 1 : 0, 0);
    for (size_t s = 0; s < shards; ++s) {
        for (size_t a = 0; a < classes.size(); ++a) {
            arch[a].completed += archStats[s][a].completed;
            arch[a].misses += archStats[s][a].misses;
            arch[a].latencySumUs += archStats[s][a].latencySumUs;
            arch[a].latencyMaxUs = std::max(
                arch[a].latencyMaxUs, archStats[s][a].latencyMaxUs);
            arch[a].fallbacks += archStats[s][a].fallbacks;
            arch[a].suppressed += archStats[s][a].suppressed;
            arch[a].arqAbandoned += archStats[s][a].arqAbandoned;
        }
        total.deferred += shardStats[s].deferred;
        total.cloudThrottled += shardStats[s].cloudThrottled;
        total.phoneBusyUs += shardStats[s].phoneBusyUs;
        total.gatewayBusyUs += shardStats[s].gatewayBusyUs;
        total.radioBusyUs += shardStats[s].radioBusyUs;
        total.transfers += shardStats[s].transfers;
        total.spanMaxUs =
            std::max(total.spanMaxUs, shardStats[s].spanMaxUs);
        total.items += shardStats[s].items;
        total.chaosRetries += shardStats[s].chaosRetries;
        total.gatewayLocal += shardStats[s].gatewayLocal;
        total.blackoutFallbacks += shardStats[s].blackoutFallbacks;
        total.replayed += shardStats[s].replayed;
        total.faultOffered += shardStats[s].faultOffered;
        total.faultDelivered += shardStats[s].faultDelivered;
        total.faultAbandoned += shardStats[s].faultAbandoned;
        total.faultAttempts += shardStats[s].faultAttempts;
        for (size_t r = 0; r < retryHistTotal.size(); ++r)
            retryHistTotal[r] += retryHist[s][r];
    }

    // Report assembly is the only place doubles appear; every input
    // is an integer that is already shard/worker-independent.
    PopulationFleetResult result;
    FleetReport &report = result.report;
    report.policy = "tiered-fcfs";
    report.nodeCount = static_cast<size_t>(config.nodes);
    const double span_us =
        static_cast<double>(total.spanMaxUs);
    report.spanMs = span_us / 1000.0;
    report.radioBusyMs =
        static_cast<double>(total.radioBusyUs) / 1000.0;
    // Occupancy is per cell channel (phones) — the population path
    // has no single shared radio to saturate.
    report.radioOccupancy =
        span_us > 0.0 ? static_cast<double>(total.radioBusyUs) /
                            (span_us *
                             static_cast<double>(topo.phones))
                      : 0.0;
    report.transfers = static_cast<size_t>(total.transfers);
    report.aggregatorBusyMs =
        static_cast<double>(total.phoneBusyUs) / 1000.0;
    report.aggregatorUtilization =
        span_us > 0.0 ? static_cast<double>(total.phoneBusyUs) /
                            (span_us *
                             static_cast<double>(topo.phones))
                      : 0.0;
    report.aggregatorCpuShare =
        config.tiers.phone.maxCpuUtilization;
    report.aggregatorPowerUw = 0.0;
    report.aggregatorLifetimeHours = 0.0;
    for (size_t a = 0; a < classes.size(); ++a) {
        const PopulationArchetype &cls = classes[a];
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
        row.events = static_cast<size_t>(arch[a].completed);
        row.deadlineMisses = static_cast<size_t>(arch[a].misses);
        row.meanLatencyMs =
            arch[a].completed > 0
                ? static_cast<double>(arch[a].latencySumUs) /
                      static_cast<double>(arch[a].completed) /
                      1000.0
                : 0.0;
        row.worstLatencyMs =
            static_cast<double>(arch[a].latencyMaxUs) / 1000.0;
        row.aggregatorPowerUw = 0.0;
        row.degradedEvents =
            static_cast<size_t>(arch[a].arqAbandoned);
        report.totalEvents += row.events;
        report.totalDeadlineMisses += row.deadlineMisses;
        report.rows.push_back(std::move(row));
    }
    TiersReport &tiers = report.tiers;
    tiers.enabled = true;
    tiers.sensorsPerPhone = topo.sensorsPerPhone;
    tiers.phonesPerGateway = topo.phonesPerGateway;
    tiers.phones = static_cast<size_t>(topo.phones);
    tiers.gateways = static_cast<size_t>(topo.gateways);
    tiers.windows = static_cast<size_t>(windows);
    tiers.deferredUplinks = static_cast<size_t>(total.deferred);
    tiers.cloudThrottled =
        static_cast<size_t>(total.cloudThrottled);
    tiers.phoneBusyMs =
        static_cast<double>(total.phoneBusyUs) / 1000.0;
    tiers.gatewayBusyMs =
        static_cast<double>(total.gatewayBusyUs) / 1000.0;
    for (size_t a = 0; a < classes.size(); ++a) {
        tiers.localFallbacks +=
            static_cast<size_t>(arch[a].fallbacks);
        tiers.dutySuppressed +=
            static_cast<size_t>(arch[a].suppressed);
    }

    if (chaosOn) {
        ChaosReport &cr = report.chaos;
        cr.enabled = true;
        cr.gatewayCrashes =
            static_cast<size_t>(ct.gatewayCrashes);
        cr.gatewayRestarts =
            static_cast<size_t>(ct.gatewayRestarts);
        cr.failovers = static_cast<size_t>(ct.failovers);
        cr.migratedNodes = static_cast<size_t>(ct.migratedNodes);
        cr.failbackNodes = static_cast<size_t>(ct.failbackNodes);
        cr.rekeyedItems = static_cast<size_t>(ct.rekeyedItems);
        cr.retries = static_cast<size_t>(total.chaosRetries);
        cr.droppedEvents = static_cast<size_t>(ct.droppedEvents);
        cr.parkedInjects = static_cast<size_t>(ct.parkedInjects);
        cr.replayedEvents = static_cast<size_t>(total.replayed);
        cr.gatewayLocalEvents =
            static_cast<size_t>(total.gatewayLocal);
        cr.blackoutFallbacks =
            static_cast<size_t>(total.blackoutFallbacks);
        cr.churnLeaves = static_cast<size_t>(ct.churnLeaves);
        cr.churnJoins = static_cast<size_t>(ct.churnJoins);
        cr.gatewayDownWindows =
            static_cast<size_t>(ct.gatewayDownWindows);
        cr.cloudDownWindows =
            static_cast<size_t>(ct.cloudDownWindows);
        cr.handoverMs =
            static_cast<double>(ct.handoverUs) / 1000.0;
        uint16_t worstStreak = 0;
        for (uint64_t n = 0; n < config.nodes; ++n)
            worstStreak =
                std::max(worstStreak, slabs.outageStreak()[n]);
        cr.maxOutageStreak = worstStreak;
        cr.episodes = std::move(chaosEpisodes);
        cr.droppedEpisodes =
            static_cast<size_t>(ct.droppedEpisodes);
    }

    if (link.enabled) {
        RobustnessReport &rob = report.robustness;
        rob.enabled = true;
        rob.packetsOffered =
            static_cast<size_t>(total.faultOffered);
        rob.packetsDelivered =
            static_cast<size_t>(total.faultDelivered);
        rob.packetsAbandoned =
            static_cast<size_t>(total.faultAbandoned);
        rob.attempts = static_cast<size_t>(total.faultAttempts);
        // Same trailing-trim convention as the detailed path: the
        // histogram ends at the deepest retry actually used.
        size_t depth = retryHistTotal.size();
        while (depth > 0 && retryHistTotal[depth - 1] == 0)
            --depth;
        rob.retryHistogram.assign(retryHistTotal.begin(),
                                  retryHistTotal.begin() +
                                      static_cast<ptrdiff_t>(depth));
        rob.degradedEvents =
            static_cast<size_t>(total.faultAbandoned);
    }

    if (collect) {
        StatsRegistry &reg = StatsRegistry::instance();
        ShardObs folded;
        for (const ShardObs &obs : obsStats) {
            folded.admittedPhone += obs.admittedPhone;
            folded.admittedGateway += obs.admittedGateway;
            folded.deferredPhone += obs.deferredPhone;
            folded.deferredGateway += obs.deferredGateway;
            folded.latencySumUs += obs.latencySumUs;
            for (uint32_t b = 0;
                 b < StatsRegistry::kHistogramBuckets; ++b)
                folded.latencyBuckets[b] += obs.latencyBuckets[b];
        }
        reg.add(sids.admittedPhone, folded.admittedPhone);
        reg.add(sids.admittedGateway, folded.admittedGateway);
        reg.add(sids.deferredPhone, folded.deferredPhone);
        reg.add(sids.deferredGateway, folded.deferredGateway);
        reg.mergeHistogram(sids.latencyUs, folded.latencySumUs,
                           folded.latencyBuckets,
                           StatsRegistry::kHistogramBuckets);
        // Run-level totals, published from the merged accumulators
        // (already shard-grouping-independent by construction).
        reg.add(sids.completed, report.totalEvents);
        reg.add(sids.deadlineMisses, report.totalDeadlineMisses);
        reg.add(sids.localFallbacks, tiers.localFallbacks);
        reg.add(sids.dutySuppressed, tiers.dutySuppressed);
        reg.add(sids.cloudThrottled, total.cloudThrottled);
        reg.add(sids.wheelItems, total.items);
        reg.add(sids.transfers, total.transfers);
        if (chaosOn) {
            reg.add(sids.chaosFailovers, ct.failovers);
            reg.add(sids.chaosMigrations, ct.migratedNodes);
            reg.add(sids.chaosRetries, total.chaosRetries);
        }
    }

    result.simulatedEvents = total.items;
    result.effectiveShards = shards;
    result.bytesPerNode = NodeSlabs::bytesPerNode();
    return result;
}

} // namespace xpro
