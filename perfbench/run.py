#!/usr/bin/env python3
"""Builds and runs the miniself benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload steady --seed 1 --seconds 15 --trace 0

Workloads: steady, cold, storm, oldgen (see BENCHMARK.json for why each is
there). The benchmark is a CMake project of its own (perfbench/CMakeLists.txt)
that compiles the miniself sources under src/ together with the registered
benchmark programs under bench/. It is configured and built into
.bench_build/perfbench on first use; later runs only rebuild what changed.
Build output goes to stderr, so the last line of stdout is always the
result object of the run.

With --trace 1 the spans of the run are written as Chrome trace-event JSON to
.bench_build/trace-<workload>-<seed>.json.

The script checks that the metrics of the result line are exactly the ones
BENCHMARK.json lists for the mode, with the same units, and exits non-zero
when the sources are missing, the build fails, the run fails or exceeds its
time limit, or the result line does not match.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("steady", "cold", "storm", "oldgen")
# A run must end within 180 s; the build before it has its own limit.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("miniself sources (src/) not found under " + ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "--parallel", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build step %s failed: %s" % (cmd[:2], err))
        if done.returncode != 0:
            fail("build step %s exited with %d" % (cmd[:2], done.returncode))
    return os.path.join(BUILD, "perfbench")


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        fail("cannot read BENCHMARK.json: %s" % err)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the run did not end with a result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result line has keys %s" % sorted(result))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        fail("result metrics differ from BENCHMARK.json: missing %s, extra "
             "%s, unit mismatch %s" % (missing, extra, units))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in (0, 120]")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            ROOT, ".bench_build",
            "trace-%s-%d.json" % (args.workload, args.seed))]
    # The VM reads these to reshape every policy (GC stress, background
    # compilation, incremental marking); the benchmark measures the
    # configurations it names, not whatever the caller's shell exports.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MINISELF_")}
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail("run failed: %s" % err)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail("the benchmark exited with %d" % done.returncode)
    check_result(lines[-1], args.trace == "1")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
