#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size; about a minute on 4 cores.

    python3 perfbench/selftest.py

Run from the root of an odonn checkout. Checks that:
  * every workload's untraced run emits exactly the end_to_end metrics of
    BENCHMARK.json, and the traced run exactly the per_layer metrics, each
    finite, with the declared unit and a sample count on its "metric" line;
  * every run passes the digest gate (correct, no failures);
  * a deliberately corrupted output (--corrupt 1) makes the gate fire;
  * in a directory holding only BENCHMARK.json and the benchmark's own
    files, the command exits non-zero without printing a result.
Exits 0 when all checks pass.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys

METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+) \(n=(\d+)\)$")


def run(command, cwd="."):
    done = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=300)
    return done.returncode, done.stdout.decode(), done.stderr.decode()


class Checker:
    def __init__(self):
        self.failures = 0

    def expect(self, ok, what):
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")
        self.failures += 0 if ok else 1
        return ok


def bench_run(bench, workload, trace, corrupt=0):
    command = bench["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "0.5",
        "--trace", str(trace), "--tiny", "1", "--corrupt", str(corrupt)]
    code, out, err = run(command)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if code == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    return code, lines, result, err


def check_metrics(checker, label, lines, result, declared):
    counted = {}
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            counted[m.group(1)] = (m.group(3), int(m.group(4)))
    metrics = result["metrics"]
    checker.expect(set(metrics) == set(declared),
                   f"{label}: emits exactly the {len(declared)} declared "
                   f"metrics (extra {sorted(set(metrics) - set(declared))}, "
                   f"missing {sorted(set(declared) - set(metrics))})")
    bad = []
    for name, unit in declared.items():
        entry = metrics.get(name)
        line = counted.get(name)
        if (entry is None or set(entry) != {"value", "unit"}
                or entry["unit"] != unit
                or not isinstance(entry["value"], (int, float))
                or not math.isfinite(entry["value"])
                or line is None or line[0] != unit or line[1] < 1):
            bad.append(name)
    checker.expect(not bad, f"{label}: every metric finite, with its unit "
                            f"and a sample count {bad if bad else ''}")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    checker = Checker()

    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, declared in ((0, e2e), (1, layers)):
            label = f"{workload} trace={trace}"
            code, lines, result, err = bench_run(bench, workload, trace)
            if not checker.expect(result is not None,
                                  f"{label}: exits 0 with a JSON result"):
                print(err[-2000:])
                continue
            checker.expect(set(result) == {"correct", "attempted", "failed",
                                           "metrics"},
                           f"{label}: result has exactly the contract keys")
            checker.expect(result["correct"] is True and result["failed"] == 0
                           and result["attempted"] >= 1,
                           f"{label}: digest gate passes "
                           f"({result['attempted']} attempted)")
            check_metrics(checker, label, lines, result, declared)
        code, lines, result, err = bench_run(bench, workload, 0, corrupt=1)
        checker.expect(result is not None and result["correct"] is False
                       and result["failed"] >= 1,
                       f"{workload}: a corrupted output makes the gate fire")

    # A directory holding only BENCHMARK.json and the benchmark's files.
    bare = os.path.join(".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(bare, path))
    code, out, _ = run(bench["command"] + [
        "--workload", bench["workloads"][0]["name"], "--seed", "1",
        "--seconds", "1", "--trace", "0"], cwd=bare)
    checker.expect(code != 0 and '"correct"' not in out,
                   f"bare directory: exits {code} without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{checker.failures} failure(s)")
    return 1 if checker.failures else 0


if __name__ == "__main__":
    sys.exit(main())
