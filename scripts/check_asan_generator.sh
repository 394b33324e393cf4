#!/bin/sh
# Build the tree under AddressSanitizer + UndefinedBehaviorSanitizer
# and run the generator-facing suites under it: the persistent
# flow network, the partitioner, the property-based generator oracle
# tests, the ML suites (flat-matrix row views, batched kernels,
# on-demand Gram rows, parallel ensemble training), the
# fault-injection suites (ARQ
# callback-chain lifetimes), and the adaptive-controller suites
# (long-lived flow network under repeated capacity updates),
# and the serving hot-path suites (arena lifetimes, packed SV tiles,
# cross-user batch slicing, both builds of the SIMD kernel tests),
# and the stats-registry suite (fixed
# cell array bounds, slab growth), and the fleet design suites
# (the RNG's gaussian skips, masked dataset synthesis, SMO's pair
# step kernel, split-only feature extraction, the topology builders
# and the engines they feed), and the DSP suites
# (the DWT and its golden vectors, the float and fixed-point feature
# sets, the feature pool). Usage:
#
#   scripts/check_asan_generator.sh [build-dir]
#
# The build directory defaults to build-asan next to the regular
# build so the configurations never share object files.
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build-asan"}

cmake -B "$build" -S "$repo" -DXPRO_SANITIZE=address,undefined
cmake --build "$build" \
    --target test_flow_network test_partitioner \
             test_partitioner_property test_ml_parallel \
             test_random_subspace test_crossval \
             test_fault_injection test_trace_export \
             test_controller test_hotpath_identity \
             test_simd_kernels test_simd_kernels_baseline \
             test_stats_registry test_data_synth test_random \
             test_svm test_pipeline test_kernel test_matrix \
             test_dwt test_dwt_fixed test_features \
             test_features_fixed test_feature_pool \
             test_topology test_multiclass test_engine \
             test_extensions \
    -j "$(nproc)"
ctest --test-dir "$build" \
    -L 'generator|partitioner|flow|ml|robust|control|hotpath|obs|design|dsp' \
    --output-on-failure
echo "ASan/UBSan generator pass: OK"
