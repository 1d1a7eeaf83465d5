#!/usr/bin/env python3
"""Builds and runs the odonn benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--tiny 0|1] [--corrupt 0|1]

The first call configures and builds perfbench (the odonn library from
src/ plus the driver in perfbench/src/) as an optimized CMake package in
.bench_build/perfbench; later calls only rebuild what changed. The driver
then runs with ODONN_THREADS set to the number of usable CPUs, and its
output is passed through: "record"/"info"/"metric" lines, then one JSON
result object as the last line. Exits non-zero, without a result, when
the checkout lacks the odonn sources or the build or run fails.
"""
import argparse
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 165  # the whole call must end within 180 s after a build
REQUIRED = ("src/obs/obs.cpp", "bench/bench_common.cpp",
            "perfbench/CMakeLists.txt", "perfbench/digests.txt")


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(jobs):
    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        fail("run from the root of an odonn checkout; missing "
             + ", ".join(missing), 2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(jobs)])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step), 3)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative", 2)

    cpus = len(os.sched_getaffinity(0))
    binary = build(cpus)

    env = dict(os.environ)
    env["ODONN_THREADS"] = str(cpus)
    for key in ("ODONN_TRACE", "ODONN_OBS_DETAIL"):
        env.pop(key, None)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--tiny", str(args.tiny), "--corrupt", str(args.corrupt)]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    if result.returncode != 0:
        fail(f"driver exited with code {result.returncode}", 5)
    sys.stdout.write(result.stdout.decode())
    sys.stdout.flush()


if __name__ == "__main__":
    main()
