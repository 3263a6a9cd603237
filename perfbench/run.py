#!/usr/bin/env python3
"""Build and run the simulator benchmark (see NOTES.md).

    python3 perfbench/run.py --workload dice-hits --seed 3 --seconds 45 --trace 0
    python3 perfbench/run.py --record      # re-record expected.txt

Run from the repository root. The program is built from the sources in
this checkout into .bench_build/. Its output, whose last line is one
JSON object, passes through; the exit code is the program's own.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TMP = BUILD / "tmp"  # keeps the compiler's temporary files in the checkout
EXPECTED = HERE / "expected.txt"
# Ends the run before the 180 s the benchmark contract allows.
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "bench" / "harness.hpp").is_file():
        sys.exit("perfbench: no simulator sources beside perfbench/")
    TMP.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD),
                  "-j", str(len(os.sched_getaffinity(0)))])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr,
                          env=dict(os.environ, TMPDIR=str(TMP))).returncode != 0:
            sys.exit("perfbench: build failed")
    return BUILD / "perfbench"


def bench_env():
    """The simulator's knobs all off, except the ones a cold batch needs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DICE_")}
    env["DICE_BENCH_NO_CACHE"] = "1"  # no result cache, no arena store
    env["DICE_BENCH_JOBS"] = str(len(os.sched_getaffinity(0)))
    env["DICE_LOG_LEVEL"] = "quiet"   # per-cell [sim] lines off
    env["TMPDIR"] = str(TMP)
    return env


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="re-simulate the recorded seeds into expected.txt")
    a = p.parse_args()
    if not a.record and a.workload is None:
        p.error("--workload is required")
    if a.seed < 0:
        p.error("--seed must be non-negative")

    binary = build()
    if a.record:
        cmd = [str(binary), "--record", str(EXPECTED)]
    else:
        trace_out = BUILD / f"trace-{a.workload}-seed{a.seed}.json"
        cmd = [str(binary), "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--trace", str(a.trace),
               "--expected", str(EXPECTED), "--trace-out", str(trace_out)]
    try:
        done = subprocess.run(cmd, env=bench_env(), cwd=ROOT,
                              timeout=None if a.record else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
