#!/bin/sh
# Configure a Release tree with every warning an error and
# build every target (library, tests, benches, examples, tools). The
# top-level CMakeLists already turns on -Wall -Wextra; this script
# adds -Werror from the command line, so the build itself keeps no
# warnings-as-errors switch. Usage:
#
#   scripts/check_warnings.sh [build-dir]
#
# The build directory defaults to build-werror next to the regular
# build. A reused tree hides nothing: an object cached there was
# compiled with -Werror, and a flag change recompiles everything.
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build-werror"}

cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$build" -j "$(nproc)"
echo "Warnings-as-errors build: OK"
