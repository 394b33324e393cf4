#include "sim/event_queue.hh"

#include <algorithm>

#include "common/logging.hh"

namespace xpro
{

void
EventQueue::publishRunStats([[maybe_unused]] size_t executed)
{
#if !defined(XPRO_STATS_OFF)
    // Detailed-path queue telemetry: cumulative events executed and
    // the deepest the heap ever got. Single-threaded per queue and
    // deterministic per run, so Stable scope.
    struct Ids {
        StatId run, events, depth;
    };
    static const Ids ids = [] {
        StatsRegistry &reg = StatsRegistry::instance();
        return Ids{reg.registerCounter("sim.queue_runs"),
                   reg.registerCounter("sim.events_run"),
                   reg.registerGauge("sim.queue_depth_highwater")};
    }();
    StatsRegistry &reg = StatsRegistry::instance();
    reg.add(ids.run);
    reg.add(ids.events, executed);
    reg.gaugeMax(ids.depth, _maxPending);
    _maxPending = _items.size();
#endif
}

// --- TimeWheel ------------------------------------------------------

TimeWheel::TimeWheel()
{
    // The scratch vector grows once to the densest slot ever seen.
    _scratch.reserve(kChunkItems);
}

uint32_t
TimeWheel::growPool()
{
    xproAssert(_chunks.size() < kNoChunk, "wheel chunk pool exhausted");
    _chunks.emplace_back();
    return static_cast<uint32_t>(_chunks.size() - 1);
}

int
TimeWheel::nextOccupied(size_t level, size_t from) const
{
    if (from >= kSlots)
        return -1;
    size_t word = from >> 6;
    uint64_t bits =
        _occupied[level][word] & (~uint64_t(0) << (from & 63));
    while (true) {
        if (bits != 0) {
            return static_cast<int>((word << 6) +
                                    static_cast<size_t>(
                                        __builtin_ctzll(bits)));
        }
        if (++word >= kWordsPerLevel)
            return -1;
        bits = _occupied[level][word];
    }
}

uint64_t
TimeWheel::nextCandidate()
{
    // The caller established that the current level-0 window holds
    // nothing from now() onward. Every other pending item is either
    //  (a) in a level-0 slot BEHIND the cursor — exactly one
    //      rotation ahead (filed with delta < 256 after the cursor
    //      passed the slot), due at base + 256 + slot;
    //  (b) in a level >= 1 slot at-or-after that level's cursor —
    //      due no earlier than the slot's span start (slots at the
    //      cursor itself only hold next-rotation items, since entry
    //      cascades emptied the current-rotation ones);
    //  (c) in a level >= 1 slot behind that level's cursor — one
    //      rotation of that level ahead;
    //  (d) in the far-overflow vector.
    // Levels >= 1 give under-estimates (the item sits somewhere in
    // a multi-tick slot), never over-estimates, so jumping to the
    // minimum can land early — the drain loop just computes the
    // next candidate again — but can never skip an item.
    uint64_t best = ~uint64_t(0);
    const uint64_t level0_base = _now & ~kSlotMask;
    const size_t level0_cursor = static_cast<size_t>(_now & kSlotMask);
    {
        const int behind = nextOccupied(0, 0);
        if (behind >= 0 &&
            static_cast<size_t>(behind) <= level0_cursor) {
            best = std::min(best, level0_base + kSlots +
                                      static_cast<uint64_t>(behind));
        }
    }
    for (size_t level = 1; level < kLevels; ++level) {
        const uint64_t base = _now & ~(span(level) - 1);
        const size_t cursor = slotIndex(level, _now);
        const int ahead = nextOccupied(level, cursor + 1);
        if (ahead >= 0) {
            best = std::min(
                best, base + static_cast<uint64_t>(ahead) *
                                 width(level));
        }
        const int behind = nextOccupied(level, 0);
        if (behind >= 0 && static_cast<size_t>(behind) <= cursor) {
            best = std::min(
                best, base + span(level) +
                          static_cast<uint64_t>(behind) *
                              width(level));
        }
    }
    if (!_far.empty())
        best = std::min(best, _farMin);
    xproAssert(best != ~uint64_t(0) || _size == 0,
               "%zu items pending but none locatable", _size);
    return best;
}

void
TimeWheel::advanceTo(uint64_t t)
{
    xproAssert(t >= _now, "wheel cannot rewind");
    const bool crossed = (t & ~kSlotMask) != (_now & ~kSlotMask);
    _now = t;
    if (!crossed)
        return;
    // Entering a new 256-tick window: cascade the entry slots top
    // down, so items due in the window now sit at their exact
    // level-0 slots. Re-filing is just schedule() again — the
    // shrunken delta picks the right (lower) level. Items that hash
    // to an entry slot but belong to a later rotation are re-filed
    // back where they were; harmless.
    for (size_t level = kLevels - 1; level >= 1; --level) {
        const size_t slot = slotIndex(level, _now);
        const Slot chain = _slots[level][slot];
        if (chain.size == 0)
            continue;
        _slots[level][slot] = Slot{};
        clearBit(level, slot);
        _size -= chain.size;
        XPRO_STAT(_counters.cascades += chain.size);
        // Re-file straight from the detached chain, releasing each
        // chunk once read. An item is copied out before schedule(),
        // which may grow the pool under it.
        forEachChunk(chain, [&](uint32_t chunk, size_t count) {
            for (size_t i = 0; i < count; ++i) {
                const WheelItem item = _chunks[chunk].items[i];
                schedule(item);
            }
            releaseChain(chunk, chunk);
        });
    }
    // The far overflow re-files once the top level can hold its
    // earliest item; stragglers go back with a fresh minimum.
    if (!_far.empty() && _farMin - _now < span(kLevels - 1)) {
        _scratch.assign(_far.begin(), _far.end());
        _far.clear();
        _size -= _scratch.size();
        _farMin = 0;
        XPRO_STAT(_counters.farRefiled += _scratch.size());
        for (const WheelItem &item : _scratch)
            schedule(item);
        _scratch.clear();
    }
}

void
TimeWheel::recomputeFarMin()
{
    _farMin = 0;
    if (_far.empty())
        return;
    _farMin = ~uint64_t(0);
    for (const WheelItem &item : _far)
        _farMin = std::min(_farMin, item.at);
}

// --- ShardedEventQueue ----------------------------------------------

ShardedEventQueue::ShardedEventQueue(size_t shards,
                                     uint64_t window_ticks)
    : _wheels(shards), _window(window_ticks)
{
    xproAssert(shards > 0, "need at least one shard");
    xproAssert(window_ticks > 0,
               "conservative sync needs a nonzero window");
}

size_t
ShardedEventQueue::pending() const
{
    size_t total = 0;
    for (const TimeWheel &wheel : _wheels)
        total += wheel.pending();
    return total;
}

void
ShardedEventQueue::publishRunStats(uint64_t windows) const
{
#if defined(XPRO_STATS_OFF)
    (void)windows;
#else
    // Wheel internals are Diag scope: cascade counts, slot sharing,
    // the far-overflow split and per-shard high-waters all depend on
    // how nodes hash across shards. items_drained is kept Diag too:
    // cascaded items are counted once per drain, but the snapshot
    // section split is about what we *promise*, and we only promise
    // shard-invariance for the stable section.
    struct Ids {
        StatId runs, windows, cascades, farFiled, farRefiled;
        StatId slotDrains, itemsDrained, maxPending, shardItems;
    };
    static const Ids ids = [] {
        StatsRegistry &reg = StatsRegistry::instance();
        const StatScope d = StatScope::Diag;
        return Ids{
            reg.registerCounter("event_queue.runs", d),
            reg.registerCounter("event_queue.windows", d),
            reg.registerCounter("event_queue.cascades", d),
            reg.registerCounter("event_queue.far_filed", d),
            reg.registerCounter("event_queue.far_refiled", d),
            reg.registerCounter("event_queue.slot_drains", d),
            reg.registerCounter("event_queue.items_drained", d),
            reg.registerGauge("event_queue.wheel_pending_highwater",
                              d),
            reg.registerHistogram("event_queue.shard_items", d),
        };
    }();
    StatsRegistry &reg = StatsRegistry::instance();
    reg.add(ids.runs);
    reg.add(ids.windows, windows);
    for (const TimeWheel &wheel : _wheels) {
        const TimeWheel::Counters &c = wheel.counters();
        reg.add(ids.cascades, c.cascades);
        reg.add(ids.farFiled, c.farFiled);
        reg.add(ids.farRefiled, c.farRefiled);
        reg.add(ids.slotDrains, c.slotDrains);
        reg.add(ids.itemsDrained, c.itemsDrained);
        reg.gaugeMax(ids.maxPending, c.maxPending);
        reg.observe(ids.shardItems, c.itemsDrained);
    }
#endif
}

} // namespace xpro
