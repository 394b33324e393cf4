#!/bin/sh
# Build the tree under ThreadSanitizer and run the thread-spawning
# suites under it: the fleet tests (worker pool, parallel design
# phase, sharded population drain with per-shard wheels), the
# generator property tests (parallel lambda-candidate
# evaluation, shared characterization cache), the ML suites
# (parallel ensemble training and cross-validation), and the
# fault-injection suites (shared-channel fleet ARQ), and the serving
# hot-path suites (cross-user batches sliced across workers, both
# builds of the SIMD kernel tests), and the
# stats-registry suite (concurrent registration, relaxed-atomic
# cells, snapshot determinism across shards x workers), and the
# chaos suite (barrier-driven failover migration and queue re-keying
# racing the sharded drain; its determinism test covers >= 2
# shards x workers combinations under TSan). Usage:
#
#   scripts/check_tsan_fleet.sh [build-dir]
#
# The build directory defaults to build-tsan next to the regular
# build so the two configurations never share object files.
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build-tsan"}

cmake -B "$build" -S "$repo" -DXPRO_SANITIZE=thread
cmake --build "$build" \
    --target test_fleet test_event_queue \
             test_partitioner_property test_ml_parallel \
             test_random_subspace test_crossval \
             test_fault_injection test_trace_export \
             test_hotpath_identity test_simd_kernels \
             test_simd_kernels_baseline test_stats_registry \
             test_fleet_chaos test_sim test_kernel test_matrix \
    -j "$(nproc)"
ctest --test-dir "$build" \
    -L 'fleet|generator|ml|robust|hotpath|obs|chaos' \
    --output-on-failure
echo "TSan fleet pass: OK"
