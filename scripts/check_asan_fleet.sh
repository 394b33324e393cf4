#!/bin/sh
# Build the tree under AddressSanitizer + UndefinedBehaviorSanitizer
# and run the fleet-label suites under it: the detailed fleet
# simulator (recycled instance-slot rings, ARQ job slabs, radio
# arbitration lifetimes), the population path (node slabs, per-slot wheel
# vectors swapped during drains, tier budget arrays), the
# hierarchical time wheel itself (bitmap scans, far-overflow
# refiling, schedule-during-drain), and the chaos layer (masked
# cross-shard extract/re-file during failover, parked-inject replay
# buffers). Slot recycling makes use-after-retire the detailed
# simulator's failure mode, so it also runs the single-node
# simulator suite (test_sim, labelled fleet), the robustness and
# fault-injection suites (test_robustness, test_fault_injection) and
# the detailed golden CLI
# cases (fleet and single node, traces included). Last come the
# population golden CLI cases, which drive tier deferral, harsh
# chaos on four shards and population ARQ end to end through the
# slab and shard-mask code. The CLI flag sweep (cli.flag_sweep) then
# feeds every flag hostile values in all three run modes. Usage:
#
#   scripts/check_asan_fleet.sh [build-dir]
#
# The build directory defaults to build-asan next to the regular
# build so the configurations never share object files (and so this
# pass shares its build tree with check_asan_generator.sh).
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build-asan"}

cmake -B "$build" -S "$repo" -DXPRO_SANITIZE=address,undefined
cmake --build "$build" \
    --target test_fleet test_event_queue test_fleet_chaos test_sim \
    test_robustness test_fault_injection xpro_cli \
    -j "$(nproc)"
ctest --test-dir "$build" -L 'fleet|chaos' --output-on-failure
for suite in test_robustness test_fault_injection; do
    "$build/tests/$suite" --gtest_brief=1
done
ctest --test-dir "$build" \
    -R 'cli\.(golden\.(fleet|single_node|population)|flag_sweep)' \
    --output-on-failure
echo "ASan/UBSan fleet pass: OK"
