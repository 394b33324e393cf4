#!/bin/sh
# Build the tree under ThreadSanitizer and run the adaptive-controller
# suites under it: the controller tests themselves (generator
# re-solves, windowed adaptive simulation) plus the fleet tests the
# adaptive fleet pass builds on (the design phase still runs on the
# worker pool; the per-node adaptive passes are sequential by design
# and must stay race-free next to it). Usage:
#
#   scripts/check_tsan_control.sh [build-dir]
#
# The build directory defaults to build-tsan next to the regular
# build so the two configurations never share object files.
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build-tsan"}

cmake -B "$build" -S "$repo" -DXPRO_SANITIZE=thread
cmake --build "$build" \
    --target test_controller test_fleet \
    -j "$(nproc)"
ctest --test-dir "$build" -L 'control|fleet' \
    --output-on-failure
echo "TSan control pass: OK"
