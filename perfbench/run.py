#!/usr/bin/env python3
"""Build the perfbench harness from this checkout and run one workload.

    python3 perfbench/run.py --workload mlp_infer --seed 1 --seconds 10 --trace 0

Every argument is passed to the harness (see harness.cpp for the list).
The build goes to .bench_build/perfbench at the root of the checkout; its
output is sent to stderr, so the last line of stdout is the harness's JSON
result. With --trace 1 the traced pass is also written as Chrome
trace-event JSON to .bench_build/perfbench/trace-<workload>.json unless
--trace-out names another file. Exits nonzero, printing no result, when
the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configure and build incrementally; True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step exited {done.returncode}: "
                  f"{' '.join(step)}", file=sys.stderr)
            return False
    return True


def harness_args(argv):
    """The arguments, plus a default --trace-out for traced runs."""
    args = list(argv)
    if "--trace-out" not in args:
        try:
            traced = args[args.index("--trace") + 1] == "1"
            workload = args[args.index("--workload") + 1]
        except (ValueError, IndexError):
            traced = False  # the harness reports the malformed arguments
        if traced:
            args += ["--trace-out",
                     os.path.join(BUILD, f"trace-{workload}.json")]
    return args


def main():
    if not build():
        return 2
    try:
        done = subprocess.run([BINARY] + harness_args(sys.argv[1:]),
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: harness timed out", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
