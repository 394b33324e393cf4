#!/bin/sh
# Build the tree under AddressSanitizer + UndefinedBehaviorSanitizer
# and run the fleet-label suites under it: the detailed fleet
# simulator (arena-backed SoA member state, radio arbitration
# lifetimes), the population path (node slabs, per-slot wheel
# vectors swapped during drains, tier budget arrays), the
# hierarchical time wheel itself (bitmap scans, far-overflow
# refiling, schedule-during-drain), and the chaos layer (masked
# cross-shard extract/re-file during failover, parked-inject replay
# buffers). It also runs the population golden CLI cases, which
# drive tier deferral, harsh chaos on four shards and population
# ARQ end to end through the slab and shard-mask code. Usage:
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
    --target test_fleet test_event_queue test_fleet_chaos xpro_cli \
    -j "$(nproc)"
ctest --test-dir "$build" -L 'fleet|chaos' --output-on-failure
ctest --test-dir "$build" -R 'cli\.golden\.population' \
    --output-on-failure
echo "ASan/UBSan fleet pass: OK"
