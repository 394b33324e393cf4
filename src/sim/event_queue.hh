/**
 * @file
 * Discrete-event simulation kernels.
 *
 * Two queues live here:
 *
 *  - EventQueue: the detailed simulator's queue (sim/system_sim), a
 *    binary heap of plain 32-byte items over a reserve()d vector.
 *    An item is a time, a FIFO sequence number and a caller-defined
 *    (kind, data) pair; runAll() hands each popped pair to the
 *    caller's dispatch switch. Items pop in (time, sequence) order,
 *    a strict total order, and a caller may set sequence numbers
 *    aside to post items later exactly where they would have sorted
 *    had they been posted up front.
 *
 *  - TimeWheel + ShardedEventQueue: the population-scale kernel
 *    (DESIGN.md §16). Events are plain 24-byte records (no
 *    callbacks), times are integer ticks (microseconds), and
 *    items pop in (tick, node, kind, data) order — a strict total
 *    order independent of insertion order, which is what makes the
 *    sharded drain deterministic. A hierarchical wheel (4 levels x
 *    256 slots with occupancy bitmaps) makes schedule/pop O(1)
 *    amortized; ShardedEventQueue runs S wheels under conservative
 *    time-window synchronization on a WorkerPool.
 */

#ifndef XPRO_SIM_EVENT_QUEUE_HH
#define XPRO_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/units.hh"
#include "common/worker_pool.hh"
#include "obs/stats_registry.hh"

namespace xpro
{

/**
 * One pending detailed-simulator event: plain data, no callback. The
 * meaning of (kind, data) belongs to the caller's dispatch switch.
 */
struct QueueItem
{
    Time at;
    /** FIFO tie-break for simultaneous items. */
    uint64_t sequence = 0;
    uint32_t kind = 0;
    uint64_t data = 0;
};

/** A time-ordered queue of plain (kind, data) items. */
class EventQueue
{
  public:
    /** Current simulation time. */
    Time now() const { return _now; }

    /** Post (@p kind, @p data) at absolute time @p at (>= now),
     *  behind every item already posted for that time. */
    void
    schedule(Time at, uint32_t kind, uint64_t data)
    {
        scheduleReserved(at, _nextSequence++, kind, data);
    }

    /** Post (@p kind, @p data) @p delay after the current time. */
    void
    scheduleAfter(Time delay, uint32_t kind, uint64_t data)
    {
        schedule(_now + delay, kind, data);
    }

    /**
     * Set @p count sequence numbers aside for scheduleReserved() and
     * return the first. Items posted later under them sort as if
     * they had been posted now, in reservation order.
     */
    uint64_t
    reserveSequences(uint64_t count)
    {
        const uint64_t first = _nextSequence;
        _nextSequence += count;
        return first;
    }

    /** Post an item under a sequence number from
     *  reserveSequences(). */
    void
    scheduleReserved(Time at, uint64_t sequence, uint32_t kind,
                     uint64_t data)
    {
        xproAssert(at >= _now, "cannot schedule into the past");
        xproAssert(sequence < _nextSequence,
                   "sequence %llu was never reserved",
                   static_cast<unsigned long long>(sequence));
        _items.push_back({at, sequence, kind, data});
        std::push_heap(_items.begin(), _items.end(), Later{});
    }

    /** Pre-size the heap so up to @p capacity concurrent items never
     *  reallocate. */
    void reserve(size_t capacity) { _items.reserve(capacity); }

    /**
     * Pop items in (time, sequence) order until the queue drains,
     * calling fn(kind, data) for each with now() at the item's time;
     * fn may post more items.
     * @param max_events Safety cap; exceeding it panics (an event
     *        loop in the simulated system).
     *
     * Publishes `sim.events_run` / `sim.queue_depth_highwater` to
     * the stats registry when it returns (DESIGN.md section 17).
     */
    template <typename Fn>
    void
    runAll(size_t max_events, Fn &&fn)
    {
        size_t executed = 0;
        while (!_items.empty()) {
            // Heap-depth high-water, sampled before the pop: the size
            // seen here is the local maximum after any burst of
            // posts, so per-post bookkeeping buys nothing (DESIGN.md
            // §17).
            XPRO_STAT(_maxPending = std::max(_maxPending, _items.size()));
            std::pop_heap(_items.begin(), _items.end(), Later{});
            const QueueItem item = _items.back();
            _items.pop_back();
            _now = item.at;
            fn(item.kind, item.data);
            if (++executed > max_events)
                panic("event cap %zu exceeded; simulated system loops",
                      max_events);
        }
        publishRunStats(executed);
    }

  private:
    struct Later
    {
        bool
        operator()(const QueueItem &a, const QueueItem &b) const
        {
            if (a.at.sec() != b.at.sec())
                return a.at > b.at;
            return a.sequence > b.sequence;
        }
    };

    /** Fold one runAll() into the sim.* stats; no-op when stats are
     *  off. */
    void publishRunStats(size_t executed);

    Time _now;
    uint64_t _nextSequence = 0;
    std::vector<QueueItem> _items; // heap ordered by Later
    size_t _maxPending = 0;        // high-water, published by runAll
};

/**
 * One pending population-scale event: plain data, no callback. The
 * meaning of (kind, data) belongs to the caller; the wheel only
 * promises the pop order (at, node, kind, data) — a strict total
 * order over distinct items, so the drain sequence is a pure
 * function of the set of scheduled items, never of their insertion
 * order. That is the (timestamp, node-id) tie-break the fleet
 * report's shard/worker determinism rests on.
 */
struct WheelItem
{
    /** Absolute due time in integer ticks (microseconds in the
     *  population fleet). */
    uint64_t at = 0;
    /** Owning node id: the deterministic tie-break for simultaneous
     *  events. */
    uint32_t node = 0;
    /** Caller-defined event kind (secondary tie-break). */
    uint32_t kind = 0;
    /** Caller-defined payload (tertiary tie-break). */
    uint32_t data = 0;
};

/**
 * Hierarchical timing wheel over integer ticks: 4 levels of 256
 * slots (level l spans 256^(l+1) ticks at 256^l granularity), with
 * a 256-bit occupancy bitmap per level so empty regions are skipped
 * in O(1) word scans rather than slot-by-slot. Items beyond the
 * top level's 2^32-tick horizon overflow into a side vector and are
 * re-filed when the wheel catches up.
 *
 * Each slot is a chain of fixed-size chunks drawn from one
 * free-listed pool per wheel and linked by index; every chunk but a
 * chain's tail is full. Draining or cascading a slot returns its
 * chunks to the pool, so storage follows the items pending, not the
 * busiest slot ever seen, and the steady-state loop stops allocating
 * once the pool reaches its high-water.
 *
 * Scheduling is O(1); draining a populated slot is O(items log
 * items) for the per-slot sort (all items in a drained slot share
 * one tick, so the sort only orders the (node, kind, data)
 * tie-break).
 */
class TimeWheel
{
  public:
    /**
     * Plain per-wheel tallies, maintained with ordinary stores on
     * the (single-threaded-per-wheel) schedule/drain path and
     * published to the StatsRegistry by ShardedEventQueue::run once
     * per run. All Diag scope: slot sharing, cascade count and the
     * far-overflow split depend on how items land across shards.
     */
    struct Counters {
        uint64_t cascades = 0;     ///< items re-filed on window entry
        uint64_t farFiled = 0;     ///< items past the 2^32 horizon
        uint64_t farRefiled = 0;   ///< overflow items pulled back in
        uint64_t slotDrains = 0;   ///< non-empty slots drained
        uint64_t itemsDrained = 0; ///< items handed to drain fns
        /** pending() high-water, sampled at drainUntil() entry (the
         *  pending count peaks right after the fill burst that
         *  precedes a drain) — never updated per filed item, which
         *  would put a read-modify-write on the hottest path in the
         *  tree (DESIGN.md §17: batch-boundary sampling). */
        uint64_t maxPending = 0;
    };

    /** Items per pool chunk: a slot's storage grows and shrinks in
     *  steps of this many items. */
    static constexpr size_t kChunkItems = 16;

    TimeWheel();

    const Counters &counters() const { return _counters; }

    /** Current tick: every item handed out so far had at <= now(),
     *  every item still pending has at >= now(). */
    uint64_t now() const { return _now; }

    size_t pending() const { return _size; }
    bool empty() const { return _size == 0; }

    /**
     * File @p item. Must not be in the past, and while a slot is
     * being drained new items must land strictly after the current
     * tick (an item scheduled AT the tick being drained would have
     * to be merged into an order that was already decided).
     */
    void
    schedule(const WheelItem &item)
    {
        xproAssert(item.at >= _now && (!_draining || item.at > _now),
                   "wheel item at tick %llu scheduled at now=%llu",
                   static_cast<unsigned long long>(item.at),
                   static_cast<unsigned long long>(_now));
        const uint64_t delta = item.at - _now;
        for (size_t level = 0; level < kLevels; ++level) {
            if (delta < (uint64_t(1) << (kSlotBits * (level + 1)))) {
                file(level, item);
                return;
            }
        }
        if (_far.empty() || item.at < _farMin)
            _farMin = item.at;
        _far.push_back(item);
        ++_size;
        XPRO_STAT(++_counters.farFiled);
    }

    /**
     * Pop every item with at < @p end in (at, node, kind, data)
     * order, invoking fn(item) for each; fn may schedule() new items
     * (strictly after the item's tick). Advances now() to @p end.
     */
    template <typename Fn>
    void
    drainUntil(uint64_t end, Fn &&fn)
    {
        xproAssert(end >= _now, "drain window ends in the past");
        // Drain-call-boundary stats (DESIGN.md §17): the high-water
        // is sampled once per call — the pending count peaks right
        // after the fill burst that precedes a drain — and the slot
        // and item counts accumulate in locals the compiler keeps in
        // registers, folded into the counter struct once at the end.
        // Per-slot writes to _counters here measurably slowed the
        // whole population fleet (bench_stats_overhead caught ~3%).
        XPRO_STAT(_counters.maxPending = std::max<uint64_t>(
                      _counters.maxPending, _size));
        [[maybe_unused]] uint64_t slot_drains = 0;
        [[maybe_unused]] uint64_t items_drained = 0;
        while (_size > 0 && _now < end) {
            const uint64_t base = _now & ~kSlotMask;
            const int slot =
                nextOccupied(0, static_cast<size_t>(_now - base));
            if (slot >= 0) {
                const uint64_t tick =
                    base + static_cast<uint64_t>(slot);
                if (tick >= end)
                    break;
                [[maybe_unused]] const size_t drained =
                    drainSlot(tick, static_cast<size_t>(slot), fn);
                XPRO_STAT(++slot_drains);
                XPRO_STAT(items_drained += drained);
                advanceTo(tick + 1);
                continue;
            }
            // Current 256-tick window exhausted: jump to the next
            // window that can hold an item (cascading on entry).
            const uint64_t next = nextCandidate();
            if (next >= end)
                break;
            advanceTo(next);
        }
        if (_now < end)
            advanceTo(end);
        XPRO_STAT(_counters.slotDrains += slot_drains);
        XPRO_STAT(_counters.itemsDrained += items_drained);
    }

    /**
     * Remove every pending item matching @p pred and append it to
     * @p out (in unspecified order — callers re-file into wheels,
     * whose pop order is insertion-order independent, or count).
     * O(slots + pending). Must not be called from inside a drain;
     * it is meant for the ShardedEventQueue barrier, where the
     * chaos layer re-homes migrated/churned nodes.
     */
    template <typename Pred>
    void
    extractIf(Pred &&pred, std::vector<WheelItem> &out)
    {
        xproAssert(!_draining, "cannot extract mid-drain");
        for (size_t level = 0; level < kLevels; ++level) {
            for (size_t slot = 0; slot < kSlots; ++slot) {
                Slot &chain = _slots[level][slot];
                if (chain.size == 0)
                    continue;
                // Compact survivors towards the chain's head; the
                // write cursor never passes the read cursor, so every
                // chunk but the new tail stays full.
                Chunk *const chunks = _chunks.data(); // no growth here
                uint32_t write = chain.head;
                WheelItem *dst = chunks[write].items;
                size_t kept = 0;
                forEachChunk(chain, [&](uint32_t read, size_t count) {
                    const WheelItem *src = chunks[read].items;
                    for (size_t i = 0; i < count; ++i) {
                        const WheelItem item = src[i];
                        if (pred(item)) {
                            out.push_back(item);
                            continue;
                        }
                        if (dst == chunks[write].items + kChunkItems) {
                            write = chunks[write].next;
                            dst = chunks[write].items;
                        }
                        *dst++ = item;
                        ++kept;
                    }
                });
                _size -= chain.size - kept;
                if (kept == 0) {
                    releaseChain(chain);
                    clearBit(level, slot);
                    continue;
                }
                if (write != chain.tail)
                    releaseChain(_chunks[write].next, chain.tail);
                chain.tail = write;
                chain.size = static_cast<uint32_t>(kept);
            }
        }
        if (!_far.empty()) {
            auto keep = _far.begin();
            for (WheelItem &item : _far) {
                if (pred(static_cast<const WheelItem &>(item))) {
                    out.push_back(item);
                    --_size;
                } else {
                    *keep++ = item;
                }
            }
            if (keep != _far.end()) {
                _far.erase(keep, _far.end());
                recomputeFarMin();
            }
        }
    }

  private:
    static constexpr size_t kLevels = 4;
    static constexpr size_t kSlotBits = 8;
    static constexpr size_t kSlots = size_t(1) << kSlotBits;
    static constexpr uint64_t kSlotMask = kSlots - 1;
    static constexpr size_t kWordsPerLevel = kSlots / 64;

    /** Width of one slot at @p level, in ticks. */
    static constexpr uint64_t
    width(size_t level)
    {
        return uint64_t(1) << (kSlotBits * level);
    }

    /** Ticks covered by all of @p level's slots. */
    static constexpr uint64_t
    span(size_t level)
    {
        return uint64_t(1) << (kSlotBits * (level + 1));
    }

    size_t
    slotIndex(size_t level, uint64_t at) const
    {
        return static_cast<size_t>((at >> (kSlotBits * level)) &
                                   kSlotMask);
    }

    static constexpr uint32_t kNoChunk = ~uint32_t(0);

    /** kChunkItems items plus the index of the next chunk in its
     *  slot chain (or in the free list; a tail's is unused). The
     *  link comes first, on the same cache line as the first items. */
    struct Chunk
    {
        uint32_t next = kNoChunk;
        WheelItem items[kChunkItems];
    };

    /** One slot's chain: head and tail chunk indices and the item
     *  count (every chunk before the tail is full). */
    struct Slot
    {
        uint32_t head = kNoChunk;
        uint32_t tail = kNoChunk;
        uint32_t size = 0;
    };

    /** Items in @p chain's tail chunk (chain must be non-empty). */
    static size_t
    tailCount(const Slot &chain)
    {
        return (chain.size - 1) % kChunkItems + 1;
    }

    /**
     * Call fn(chunk, items) for each chunk of the non-empty @p chain,
     * head to tail, with the number of items it holds. Each link is
     * read before fn runs, so fn may release the chunk it is handed.
     */
    template <typename Fn>
    void
    forEachChunk(const Slot &chain, Fn &&fn)
    {
        for (uint32_t chunk = chain.head;;) {
            const uint32_t next = _chunks[chunk].next;
            if (chunk == chain.tail) {
                fn(chunk, tailCount(chain));
                return;
            }
            fn(chunk, kChunkItems);
            chunk = next;
        }
    }

    /** A chunk from the free list, or a new one at the pool's end. */
    uint32_t
    allocChunk()
    {
        if (_freeChunk == kNoChunk)
            return growPool();
        const uint32_t chunk = _freeChunk;
        _freeChunk = _chunks[chunk].next;
        return chunk;
    }

    /** Append a chunk to the pool and return its index. */
    uint32_t growPool();

    /** Return chunks @p first .. @p last (linked) to the free list. */
    void
    releaseChain(uint32_t first, uint32_t last)
    {
        _chunks[last].next = _freeChunk;
        _freeChunk = first;
    }

    /** Return all of @p chain's chunks and leave it empty. */
    void
    releaseChain(Slot &chain)
    {
        releaseChain(chain.head, chain.tail);
        chain = Slot{};
    }

    /** Copy level-0 @p slot's items into _scratch (in chain order),
     *  release its chunks and clear its bit. The caller settles
     *  _size. */
    void
    takeSlot(size_t slot)
    {
        Slot &chain = _slots[0][slot];
        _scratch.clear();
        forEachChunk(chain, [&](uint32_t chunk, size_t count) {
            const WheelItem *items = _chunks[chunk].items;
            _scratch.insert(_scratch.end(), items, items + count);
        });
        releaseChain(chain);
        clearBit(0, slot);
    }

    void
    file(size_t level, const WheelItem &item)
    {
        const size_t slot = slotIndex(level, item.at);
        Slot &chain = _slots[level][slot];
        const size_t at = chain.size % kChunkItems;
        if (at == 0) {
            // The tail is full (or the chain empty): link a fresh chunk.
            const uint32_t chunk = allocChunk();
            if (chain.size == 0) {
                chain.head = chunk;
                setBit(level, slot);
            } else {
                _chunks[chain.tail].next = chunk;
            }
            chain.tail = chunk;
        }
        _chunks[chain.tail].items[at] = item;
        ++chain.size;
        ++_size;
    }

    /** Next occupied slot index >= @p from at @p level, or -1. */
    int nextOccupied(size_t level, size_t from) const;

    /**
     * Earliest tick (possibly an under-estimate for levels >= 1,
     * never an over-estimate) at which any pending item can be due,
     * given that the current level-0 window is empty.
     */
    uint64_t nextCandidate();

    /** Move now() to @p t, cascading higher-level entry slots down
     *  whenever a window boundary is crossed. */
    void advanceTo(uint64_t t);

    /** Returns the number of items handed to @p fn, so drainUntil
     *  can count drained work without this inner loop touching the
     *  counter struct. */
    template <typename Fn>
    size_t
    drainSlot(uint64_t tick, size_t slot, Fn &&fn)
    {
        _now = tick;
        // Copy out and release first: fn's schedule() calls draw on
        // the same chunk pool, though never for this slot (a level-0
        // item has 0 < at - tick < 256, so at != tick mod 256).
        takeSlot(slot);
        std::sort(_scratch.begin(), _scratch.end(),
                  [](const WheelItem &a, const WheelItem &b) {
                      if (a.node != b.node)
                          return a.node < b.node;
                      if (a.kind != b.kind)
                          return a.kind < b.kind;
                      return a.data < b.data;
                  });
        const size_t drained = _scratch.size();
        _draining = true;
        for (const WheelItem &item : _scratch) {
            xproAssert(item.at == tick,
                       "slot %zu mixes ticks %llu and %llu", slot,
                       static_cast<unsigned long long>(item.at),
                       static_cast<unsigned long long>(tick));
            --_size;
            fn(item);
        }
        _draining = false;
        _scratch.clear();
        return drained;
    }

    void
    setBit(size_t level, size_t slot)
    {
        _occupied[level][slot >> 6] |= uint64_t(1) << (slot & 63);
    }

    void
    clearBit(size_t level, size_t slot)
    {
        _occupied[level][slot >> 6] &= ~(uint64_t(1) << (slot & 63));
    }

    /** Restore the _farMin invariant after extractIf removed
     *  far-overflow items. */
    void recomputeFarMin();

    uint64_t _now = 0;
    size_t _size = 0;
    bool _draining = false;
    Counters _counters;
    Slot _slots[kLevels][kSlots];
    uint64_t _occupied[kLevels][kWordsPerLevel] = {};
    std::vector<Chunk> _chunks; ///< the chunk pool, linked by index
    uint32_t _freeChunk = kNoChunk;
    std::vector<WheelItem> _far; ///< beyond the top level's horizon
    uint64_t _farMin = 0;
    std::vector<WheelItem> _scratch; ///< drain/far re-file working set
};

/**
 * S independent time wheels under conservative time-window
 * synchronization: the simulated timeline is cut into fixed windows
 * of @p window_ticks, every shard drains its own wheel through the
 * window (concurrently, on a WorkerPool), and a barrier runs on the
 * calling thread between windows. Shards may only couple through
 * state exchanged at the barrier, so the window length is the
 * lookahead: any cross-shard influence must take at least one
 * window to propagate (DESIGN.md §16 gives the determinism
 * argument).
 *
 * Each shard's drain is a pure function of its own item set (the
 * wheel's (at, node, kind, data) order), so the outcome is
 * byte-identical at any worker count; and when per-shard results
 * are merged by commutative-associative reduction keyed on stable
 * ids (never on arrival order), the outcome is also byte-identical
 * at any shard count.
 */
class ShardedEventQueue
{
  public:
    ShardedEventQueue(size_t shards, uint64_t window_ticks);

    size_t shardCount() const { return _wheels.size(); }
    uint64_t windowTicks() const { return _window; }

    TimeWheel &shard(size_t s) { return _wheels[s]; }
    const TimeWheel &shard(size_t s) const { return _wheels[s]; }

    /** Pending items across all shards. */
    size_t pending() const;

    /**
     * Run windows until every shard drains. For window w covering
     * ticks [w*W, (w+1)*W), every shard s executes
     * shard_fn(s, item) for its due items (in wheel order) on
     * @p pool; then barrier(w, window_end_tick) runs on the calling
     * thread. shard_fn must only touch shard-s state; the barrier
     * may touch everything.
     */
    template <typename ShardFn, typename BarrierFn>
    void
    run(WorkerPool &pool, ShardFn &&shard_fn, BarrierFn &&barrier)
    {
        uint64_t window = 0;
        while (pending() > 0) {
            const uint64_t end = (window + 1) * _window;
            pool.run(_wheels.size(), [&](size_t s) {
                _wheels[s].drainUntil(
                    end, [&](const WheelItem &item) {
                        shard_fn(s, item);
                    });
            });
            barrier(window, end);
            ++window;
        }
        publishRunStats(window);
    }

    /**
     * The removed-node contract (DESIGN.md §18): when a node leaves
     * the population mid-run, its pending items must not linger and
     * pop against stale slab state. The owner decides per item
     * between the two legal outcomes:
     *
     *  - **drop** — dropIf(): in-flight transport events addressed
     *    to the departed node are discarded (they can never
     *    complete; the accounting charges them explicitly);
     *  - **redirect** — rekeyIf(): self-events that should survive
     *    the absence are re-filed, possibly at a later tick and/or
     *    into another shard (a rejoining node's parked work, or a
     *    migrated node's items following it to the new gateway).
     *
     * Anything else — in particular leaving items filed and testing
     * slab state at pop — is a bug: it makes the drain order depend
     * on when the slab was mutated, which the determinism contract
     * forbids. Both calls are barrier-only (single-threaded, no
     * shard drain in flight).
     *
     * Both scan only the shards flagged in @p source_shards (one
     * byte per shard, nonzero = scan). The caller asserts that no
     * matching item lives outside the flagged shards — in the
     * population fleet every item of node n sits in the shard of
     * n's serving gateway, so the owner knows the source set
     * exactly, and a migration barrier scans a couple of wheels
     * instead of all of them.
     */

    /** Remove every pending item matching @p pred from the flagged
     *  shards. Returns the number of items dropped. */
    template <typename Pred>
    size_t
    dropIf(const std::vector<uint8_t> &source_shards, Pred &&pred)
    {
        extractFrom(source_shards, pred);
        const size_t dropped = _extractScratch.size();
        _extractScratch.clear();
        return dropped;
    }

    /**
     * Extract every pending item matching @p pred from the flagged
     * shards, apply fn(item) — which may raise item.at and returns
     * the target shard index, flagged or not — and re-file each
     * item into its target wheel. All matches are extracted before
     * any is re-filed, so fn may keep matching the moved items
     * without double-processing. Returns the number of items moved.
     */
    template <typename Pred, typename RekeyFn>
    size_t
    rekeyIf(const std::vector<uint8_t> &source_shards, Pred &&pred,
            RekeyFn &&fn)
    {
        extractFrom(source_shards, pred);
        for (WheelItem &item : _extractScratch) {
            const size_t target = fn(item);
            xproAssert(target < _wheels.size(),
                       "rekey target shard %zu out of range", target);
            _wheels[target].schedule(item);
        }
        const size_t moved = _extractScratch.size();
        _extractScratch.clear();
        return moved;
    }

  private:
    /** Move the flagged shards' items matching @p pred into
     *  _extractScratch. */
    template <typename Pred>
    void
    extractFrom(const std::vector<uint8_t> &source_shards, Pred &pred)
    {
        xproAssert(source_shards.size() == _wheels.size(),
                   "shard mask size mismatch");
        _extractScratch.clear();
        for (size_t s = 0; s < _wheels.size(); ++s)
            if (source_shards[s])
                _wheels[s].extractIf(pred, _extractScratch);
    }

    /** Fold every wheel's Counters into the stats registry
     *  (event_queue.* Diag stats); no-op when stats are off. */
    void publishRunStats(uint64_t windows) const;

    std::vector<TimeWheel> _wheels;
    uint64_t _window;
    std::vector<WheelItem> _extractScratch; ///< dropIf/rekeyIf buffer
};

} // namespace xpro

#endif // XPRO_SIM_EVENT_QUEUE_HH
