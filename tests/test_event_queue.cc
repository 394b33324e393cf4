/**
 * @file
 * Tests for the population-scale simulation kernel: the hierarchical
 * TimeWheel's (at, node, kind, data) pop order (independent of
 * insertion order — the determinism contract DESIGN.md §16 builds
 * on), cascade behavior across level boundaries and the far-overflow
 * horizon, window clamping, scheduling from inside a drain, the
 * chunk-pool slot storage (compaction, chunk reuse, an allocation-free
 * steady state), and the ShardedEventQueue's window loop at several
 * worker counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "alloc_count.hh"
#include "common/random.hh"
#include "common/worker_pool.hh"
#include "sim/event_queue.hh"

namespace
{

using namespace xpro;

bool
wheelOrderLess(const WheelItem &a, const WheelItem &b)
{
    if (a.at != b.at)
        return a.at < b.at;
    if (a.node != b.node)
        return a.node < b.node;
    if (a.kind != b.kind)
        return a.kind < b.kind;
    return a.data < b.data;
}

std::vector<WheelItem>
drainAll(TimeWheel &wheel, uint64_t end)
{
    std::vector<WheelItem> popped;
    wheel.drainUntil(end,
                     [&](const WheelItem &item) { popped.push_back(item); });
    return popped;
}

void
expectSameItems(const std::vector<WheelItem> &actual,
                std::vector<WheelItem> expected)
{
    std::sort(expected.begin(), expected.end(), wheelOrderLess);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i].at, expected[i].at) << "index " << i;
        EXPECT_EQ(actual[i].node, expected[i].node) << "index " << i;
        EXPECT_EQ(actual[i].kind, expected[i].kind) << "index " << i;
        EXPECT_EQ(actual[i].data, expected[i].data) << "index " << i;
    }
}

TEST(TimeWheelTest, PopsInTickOrderAgainstSortedReference)
{
    TimeWheel wheel;
    Rng rng(2017);
    std::vector<WheelItem> items;
    for (uint32_t i = 0; i < 2000; ++i) {
        WheelItem item;
        item.at = static_cast<uint64_t>(rng.below(1 << 20));
        item.node = static_cast<uint32_t>(rng.below(500));
        item.kind = static_cast<uint32_t>(rng.below(3));
        item.data = i;
        items.push_back(item);
        wheel.schedule(item);
    }
    EXPECT_EQ(wheel.pending(), items.size());
    expectSameItems(drainAll(wheel, uint64_t(1) << 21), items);
    EXPECT_TRUE(wheel.empty());
}

TEST(TimeWheelTest, PopOrderIndependentOfInsertionOrder)
{
    // Many items on the same tick (a slot chain of three full
    // chunks and a partial tail), inserted forwards in one wheel and
    // backwards in another: both must pop in node-id order.
    const uint32_t count = 3 * TimeWheel::kChunkItems + 5;
    std::vector<WheelItem> items;
    for (uint32_t n = 0; n < count; ++n) {
        WheelItem item;
        item.at = 1000;
        item.node = count - 1 - n; // descending insertion
        item.kind = n % 2;
        item.data = n;
        items.push_back(item);
    }
    TimeWheel forwards;
    TimeWheel backwards;
    for (const WheelItem &item : items)
        forwards.schedule(item);
    for (auto it = items.rbegin(); it != items.rend(); ++it)
        backwards.schedule(*it);

    const std::vector<WheelItem> a = drainAll(forwards, 2000);
    const std::vector<WheelItem> b = drainAll(backwards, 2000);
    ASSERT_EQ(a.size(), items.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].node, b[i].node);
        EXPECT_EQ(a[i].node, i); // ascending node order
        EXPECT_EQ(a[i].data, b[i].data);
    }
}

TEST(TimeWheelTest, CascadesAcrossLevelBoundaries)
{
    // One item just below and one just above each level boundary
    // (256, 256^2, 256^3), plus one beyond the 256^4 horizon that
    // must take the far-overflow path.
    TimeWheel wheel;
    std::vector<WheelItem> items;
    uint32_t next_node = 0;
    for (uint64_t boundary :
         {uint64_t(1) << 8, uint64_t(1) << 16, uint64_t(1) << 24,
          uint64_t(1) << 32}) {
        for (uint64_t at : {boundary - 1, boundary, boundary + 1}) {
            WheelItem item;
            item.at = at;
            item.node = next_node++;
            items.push_back(item);
            wheel.schedule(item);
        }
    }
    expectSameItems(drainAll(wheel, uint64_t(1) << 34), items);
    EXPECT_TRUE(wheel.empty());
}

TEST(TimeWheelTest, FarOverflowRefilesWhenWheelCatchesUp)
{
    TimeWheel wheel;
    WheelItem far;
    far.at = (uint64_t(1) << 33) + 12345;
    far.node = 7;
    wheel.schedule(far);
    WheelItem near;
    near.at = 10;
    near.node = 1;
    wheel.schedule(near);

    std::vector<WheelItem> first = drainAll(wheel, 100);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].node, 1u);
    EXPECT_EQ(wheel.pending(), 1u);

    std::vector<WheelItem> second =
        drainAll(wheel, (uint64_t(1) << 34));
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0].at, far.at);
    EXPECT_EQ(second[0].node, 7u);
    EXPECT_TRUE(wheel.empty());
}

TEST(TimeWheelTest, DrainUntilClampsToWindowEnd)
{
    TimeWheel wheel;
    for (uint64_t at : {5, 99, 100, 101, 250}) {
        WheelItem item;
        item.at = at;
        item.node = static_cast<uint32_t>(at);
        wheel.schedule(item);
    }
    // Window end is exclusive: at == 100 stays pending.
    const std::vector<WheelItem> popped = drainAll(wheel, 100);
    ASSERT_EQ(popped.size(), 2u);
    EXPECT_EQ(popped[0].at, 5u);
    EXPECT_EQ(popped[1].at, 99u);
    EXPECT_EQ(wheel.now(), 100u);
    EXPECT_EQ(wheel.pending(), 3u);

    const std::vector<WheelItem> rest = drainAll(wheel, 300);
    ASSERT_EQ(rest.size(), 3u);
    EXPECT_EQ(rest[0].at, 100u);
    EXPECT_EQ(wheel.now(), 300u);
}

TEST(TimeWheelTest, HandlerMayScheduleFollowUps)
{
    // Every popped item schedules a follow-up until a generation
    // budget runs out — including follow-ups that land in the same
    // level-0 slot one rotation later (the swap-out case).
    TimeWheel wheel;
    WheelItem seed;
    seed.at = 1;
    seed.node = 42;
    wheel.schedule(seed);
    size_t popped = 0;
    uint64_t last_at = 0;
    wheel.drainUntil(10000, [&](const WheelItem &item) {
        EXPECT_GE(item.at, last_at);
        last_at = item.at;
        ++popped;
        if (item.data < 20) {
            WheelItem next = item;
            next.at = item.at + 256; // same slot, next rotation
            next.data = item.data + 1;
            wheel.schedule(next);
        }
    });
    EXPECT_EQ(popped, 21u);
    EXPECT_TRUE(wheel.empty());
}

TEST(TimeWheelTest, ExtractIfCompactsChunkChains)
{
    // One slot holds four chunks' worth of items; the extraction
    // empties the second chunk outright and thins the others, and a
    // second slot loses every item. Survivors, plus items filed into
    // the compacted chain afterwards, pop in wheel order; the emptied
    // slot's occupancy bit is clear (only one slot drains).
    const uint32_t per = TimeWheel::kChunkItems;
    TimeWheel wheel;
    std::vector<WheelItem> kept;
    size_t taken = 0;
    for (uint32_t i = 0; i < 4 * per - 3; ++i) {
        WheelItem item;
        item.at = 500;
        item.node = i;
        wheel.schedule(item);
        const bool mid_chunk = i >= per && i < 2 * per;
        if (mid_chunk || i % 3 == 0)
            ++taken;
        else
            kept.push_back(item);
    }
    for (uint32_t i = 0; i < per + 1; ++i) {
        WheelItem item;
        item.at = 600;
        item.node = 1000 + i;
        wheel.schedule(item);
        ++taken;
    }
    std::vector<WheelItem> out;
    wheel.extractIf(
        [per](const WheelItem &item) {
            return item.at == 600 ||
                   (item.node >= per && item.node < 2 * per) ||
                   item.node % 3 == 0;
        },
        out);
    EXPECT_EQ(out.size(), taken);
    EXPECT_EQ(wheel.pending(), kept.size());
    for (uint32_t i = 0; i < per + 2; ++i) {
        WheelItem item;
        item.at = 500;
        item.node = 2000 + i;
        wheel.schedule(item);
        kept.push_back(item);
    }
    const uint64_t drains_before = wheel.counters().slotDrains;
    expectSameItems(drainAll(wheel, 1000), kept);
    EXPECT_TRUE(wheel.empty());
    if (statsCompiledIn()) {
        EXPECT_EQ(wheel.counters().slotDrains - drains_before, 1u);
    }
}

TEST(TimeWheelTest, ExtractIfReturnsEmptiedChunksToThePool)
{
    // Fill one slot with four chunks' worth, extract three quarters
    // and drain the rest, round after round: once the first round has
    // sized the pool, every later one reuses the chunks extractIf
    // released.
    const uint32_t per = TimeWheel::kChunkItems;
    TimeWheel wheel;
    std::vector<WheelItem> out;
    out.reserve(4 * per);
    size_t drained = 0;
    const auto round = [&](uint64_t at) {
        for (uint32_t i = 0; i < 4 * per; ++i) {
            WheelItem item;
            item.at = at;
            item.node = i;
            wheel.schedule(item);
        }
        out.clear();
        wheel.extractIf(
            [per](const WheelItem &item) { return item.node >= per; },
            out);
        wheel.drainUntil(at + 1, [&](const WheelItem &) { ++drained; });
    };
    round(1000);
    xpro::testing::AllocScope scope;
    for (uint64_t r = 2; r <= 1000; ++r)
        round(r * 1000);
    const size_t allocs = scope.count();
    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(drained, 1000u * per);
    EXPECT_TRUE(wheel.empty());
}

TEST(TimeWheelTest, SteadyStateLoopIsAllocationFree)
{
    // 20k pending items, each re-filed 1..300000 ticks ahead when it
    // pops, so items live at levels 0-2 and cascade down. Once the
    // warm-up has taken slot storage and the drain scratch to their
    // high-water, the same loop must not touch the heap again.
    TimeWheel wheel;
    Rng rng(2024);
    const uint64_t horizon = 300000;
    for (uint32_t n = 0; n < 20000; ++n) {
        WheelItem item;
        item.at = 1 + rng.below(horizon);
        item.node = n;
        wheel.schedule(item);
    }
    const auto refile = [&](const WheelItem &item) {
        WheelItem next = item;
        next.at = item.at + 1 + rng.below(horizon);
        ++next.data;
        wheel.schedule(next);
    };
    const uint64_t span = 4000000;
    wheel.drainUntil(span, refile);
    xpro::testing::AllocScope scope;
    wheel.drainUntil(2 * span, refile);
    const size_t allocs = scope.count();
    const size_t bytes = scope.bytes();
    EXPECT_EQ(allocs, 0u) << bytes << " bytes";
    EXPECT_EQ(wheel.pending(), 20000u);
}

TEST(ShardedEventQueueTest, DrainsAllShardsAcrossWindows)
{
    // The same item set, sharded 1 vs 4 ways and drained with 1 vs 4
    // workers, must produce the same per-node pop sequence.
    Rng rng(99);
    std::vector<WheelItem> items;
    for (uint32_t i = 0; i < 1000; ++i) {
        WheelItem item;
        item.at = static_cast<uint64_t>(rng.below(50000));
        item.node = static_cast<uint32_t>(rng.below(64));
        item.data = i;
        items.push_back(item);
    }

    const auto runSharded = [&](size_t shards, size_t workers) {
        ShardedEventQueue queue(shards, 1000);
        for (const WheelItem &item : items)
            queue.shard(item.node % shards).schedule(item);
        // Per-node sequences: a merge keyed on stable ids, so the
        // result must not depend on the sharding.
        std::vector<std::vector<uint64_t>> per_node(64);
        size_t windows = 0;
        WorkerPool pool(workers);
        queue.run(pool,
                  [&](size_t, const WheelItem &item) {
                      per_node[item.node].push_back(
                          (item.at << 16) | item.data);
                  },
                  [&](uint64_t, uint64_t) { ++windows; });
        EXPECT_EQ(queue.pending(), 0u);
        EXPECT_EQ(windows, 50u); // max at 49999 -> window 49
        return per_node;
    };

    const auto reference = runSharded(1, 1);
    EXPECT_EQ(runSharded(4, 1), reference);
    EXPECT_EQ(runSharded(4, 4), reference);
    EXPECT_EQ(runSharded(16, 2), reference);

    size_t total = 0;
    for (const auto &seq : reference)
        total += seq.size();
    EXPECT_EQ(total, items.size());
}

TEST(TimeWheelTest, ExtractIfRemovesMatchesAcrossAllLevels)
{
    // Matching items vanish from every residence — level-0 slots,
    // upper-level slots and the far-overflow vector — and the
    // survivors still pop in wheel order with a valid far minimum.
    TimeWheel wheel;
    std::vector<WheelItem> kept, taken;
    const uint64_t far_horizon = uint64_t(1) << 32;
    const uint64_t ats[] = {3,        700,      70000,
                            9000000,  far_horizon + 5,
                            far_horizon + 900000};
    uint32_t id = 0;
    for (uint64_t at : ats) {
        for (uint32_t node = 0; node < 2; ++node) {
            WheelItem item;
            item.at = at;
            item.node = node;
            item.data = id++;
            wheel.schedule(item);
            (node == 1 ? taken : kept).push_back(item);
        }
    }
    std::vector<WheelItem> out;
    wheel.extractIf(
        [](const WheelItem &item) { return item.node == 1; }, out);
    EXPECT_EQ(out.size(), taken.size());
    EXPECT_EQ(wheel.pending(), kept.size());
    expectSameItems(drainAll(wheel, far_horizon + 1000001), kept);
    EXPECT_TRUE(wheel.empty());
}

TEST(TimeWheelTest, ExtractIfOfEveryFarItemClearsFarMinimum)
{
    // Removing the whole far-overflow set must reset the cached
    // minimum; a later far item then establishes a fresh one and
    // still pops at its exact tick.
    TimeWheel wheel;
    WheelItem far;
    far.at = (uint64_t(1) << 32) + 42;
    far.node = 9;
    wheel.schedule(far);
    std::vector<WheelItem> out;
    wheel.extractIf([](const WheelItem &) { return true; }, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(wheel.empty());
    far.at = (uint64_t(1) << 33) + 7;
    wheel.schedule(far);
    const std::vector<WheelItem> popped =
        drainAll(wheel, far.at + 1);
    ASSERT_EQ(popped.size(), 1u);
    EXPECT_EQ(popped[0].at, far.at);
}

TEST(ShardedEventQueueTest, DropIfDiscardsTransportForDepartedNode)
{
    // The removed-node contract's drop arm: in-flight transport
    // items (kind != 0) addressed to the departed node disappear,
    // self-injects (kind == 0) and other nodes' items survive.
    ShardedEventQueue queue(4, 1000);
    for (uint32_t i = 0; i < 40; ++i) {
        WheelItem item;
        item.at = 10 + i;
        item.node = i % 4;
        item.kind = static_cast<uint8_t>((i / 4) % 2); // 0 or 1
        item.data = i;
        queue.shard(item.node % 4).schedule(item);
    }
    const uint32_t departed = 3;
    // Every item of node n sits in shard n % 4: scan only shard 3.
    const std::vector<uint8_t> source = {0, 0, 0, 1};
    const size_t dropped =
        queue.dropIf(source, [&](const WheelItem &item) {
            return item.node == departed && item.kind != 0;
        });
    EXPECT_EQ(dropped, 5u); // half of node 3's ten items are kind 1
    EXPECT_EQ(queue.pending(), 35u);
    size_t departed_pops = 0;
    WorkerPool pool(1);
    queue.run(pool,
              [&](size_t, const WheelItem &item) {
                  if (item.node == departed) {
                      EXPECT_EQ(item.kind, 0);
                      ++departed_pops;
                  }
              },
              [](uint64_t, uint64_t) {});
    EXPECT_EQ(departed_pops, 5u); // the kind-0 self-injects remain
}

TEST(ShardedEventQueueTest, RekeyIfMovesItemsAcrossShardsAndTicks)
{
    // The redirect arm: a migrated node's items follow it to the
    // new shard, possibly at a later tick, and pop exactly once.
    ShardedEventQueue queue(4, 1000);
    const uint32_t mover = 2;
    for (uint32_t i = 0; i < 12; ++i) {
        WheelItem item;
        item.at = 5 + i;
        item.node = i % 4;
        item.data = i;
        queue.shard(item.node % 4).schedule(item);
    }
    const std::vector<uint8_t> source = {0, 0, 1, 0};
    const size_t moved = queue.rekeyIf(
        source,
        [&](const WheelItem &item) { return item.node == mover; },
        [&](WheelItem &item) {
            item.at += 2500; // into a later window
            return size_t(0); // re-home onto shard 0
        });
    EXPECT_EQ(moved, 3u);
    EXPECT_EQ(queue.pending(), 12u); // moved, not dropped
    std::vector<std::pair<size_t, uint64_t>> mover_pops;
    WorkerPool pool(1);
    queue.run(pool,
              [&](size_t s, const WheelItem &item) {
                  if (item.node == mover)
                      mover_pops.push_back({s, item.at});
              },
              [](uint64_t, uint64_t) {});
    ASSERT_EQ(mover_pops.size(), 3u);
    for (const auto &[s, at] : mover_pops) {
        EXPECT_EQ(s, 0u);
        EXPECT_GE(at, 2505u);
    }
}

TEST(ShardedEventQueueTest, RekeyIfAppliesOnceWhenTargetStillMatches)
{
    // All matches are extracted before any is re-filed: a predicate
    // that keeps matching the moved items (the common "flag by
    // node" case) must not see them a second time, even when the
    // target shard was already scanned.
    ShardedEventQueue queue(2, 1000);
    for (uint32_t i = 0; i < 8; ++i) {
        WheelItem item;
        item.at = 1 + i;
        item.node = 7; // every item matches, both shards populated
        item.data = i;
        queue.shard(i % 2).schedule(item);
    }
    size_t calls = 0;
    const std::vector<uint8_t> source = {1, 1};
    const size_t moved = queue.rekeyIf(
        source,
        [](const WheelItem &item) { return item.node == 7; },
        [&](WheelItem &item) {
            ++calls;
            item.at += 10;
            return size_t(0); // shard 0 — scanned first
        });
    EXPECT_EQ(moved, 8u);
    EXPECT_EQ(calls, 8u);
    EXPECT_EQ(queue.pending(), 8u);
}

TEST(ShardedEventQueueTest, ShardMaskLimitsDropAndRekeyToFlaggedShards)
{
    // The mask is the caller's promise of where matches live, and
    // the queue takes it literally: a matching item in an unflagged
    // shard is neither dropped nor re-keyed.
    ShardedEventQueue queue(3, 1000);
    for (uint32_t s = 0; s < 3; ++s) {
        WheelItem item;
        item.at = 10 + s;
        item.node = 5;
        item.kind = 1;
        item.data = s;
        queue.shard(s).schedule(item);
    }
    const auto matches = [](const WheelItem &item) {
        return item.node == 5;
    };
    EXPECT_EQ(queue.dropIf(std::vector<uint8_t>{0, 1, 0}, matches),
              1u);
    EXPECT_EQ(queue.pending(), 2u);
    EXPECT_EQ(queue.rekeyIf(std::vector<uint8_t>{1, 0, 0}, matches,
                            [](WheelItem &) { return size_t(1); }),
              1u);
    std::vector<std::pair<size_t, uint32_t>> pops;
    WorkerPool pool(1);
    queue.run(pool,
              [&](size_t s, const WheelItem &item) {
                  pops.push_back({s, item.data});
              },
              [](uint64_t, uint64_t) {});
    std::sort(pops.begin(), pops.end());
    // Shard 0's item moved to shard 1; shard 2's item, unflagged in
    // both passes, stayed where it was.
    const std::vector<std::pair<size_t, uint32_t>> expected = {
        {1, 0}, {2, 2}};
    EXPECT_EQ(pops, expected);
}

} // namespace
