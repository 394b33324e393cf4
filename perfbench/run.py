#!/usr/bin/env python3
"""Build the XPro benchmark binary from source and run one workload.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 25 --trace 0

The first call configures and builds the library (../src) plus
perfbench.cc into .bench_build/ at the repository root (CMake,
Release); later calls rebuild only what changed. The binary's output
is relayed unchanged: informational lines, then one JSON result line.
With --trace 1 the span file lands in .bench_build/spans/ unless
--spans names another path. Extra flags (--size tiny) pass
through.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "xpro_perfbench")


def build():
    """Configure once, then build the benchmark target; exits on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no XPro sources (src/) next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "xpro_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def option(args, name, default):
    """Value following @p name in @p args, else @p default."""
    for i, arg in enumerate(args[:-1]):
        if arg == name:
            return args[i + 1]
    return default


def main():
    args = sys.argv[1:]
    build()
    if option(args, "--trace", "0") == "1" and "--spans" not in args:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        name = "%s-seed%s.trace.json" % (option(args, "--workload", "x"),
                                         option(args, "--seed", "0"))
        args += ["--spans", os.path.join(spans, name)]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(BINARY, [BINARY] + args)


if __name__ == "__main__":
    main()
