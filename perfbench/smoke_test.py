#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny size.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json for one second, untraced and traced,
and checks that
  * each run exits 0 and its last stdout line is a correct result;
  * every end-to-end metric (untraced) and every per-layer metric (traced)
    named in BENCHMARK.json is printed, with its unit, and nothing else;
  * the traced run's spans nest: every span lies inside its parent, every
    parent inside its request's root span (the request's wall time).
Exit code 0 when all checks pass.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    result = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise AssertionError(
            f"{workload} trace={trace} exited {result.returncode}:\n"
            f"{result.stdout[-2000:]}{result.stderr[-2000:]}")
    return json.loads(lines[-1])


def check_metrics(report, expected, label):
    if not report["correct"] or report["failed"] != 0 or report["attempted"] < 1:
        raise AssertionError(f"{label}: not a correct run: {report}")
    printed = report["metrics"]
    for metric in expected:
        name = metric["name"]
        if name not in printed:
            raise AssertionError(f"{label}: metric {name} not printed")
        if printed[name]["unit"] != metric["unit"]:
            raise AssertionError(
                f"{label}: {name} printed in {printed[name]['unit']}, "
                f"expected {metric['unit']}")
        if not isinstance(printed[name]["value"], (int, float)):
            raise AssertionError(f"{label}: {name} is not a number")
    extra = set(printed) - {m["name"] for m in expected}
    if extra:
        raise AssertionError(f"{label}: metrics not in BENCHMARK.json: {extra}")


def check_spans(workload):
    path = os.path.join(ROOT, ".bench_build", "work-" + workload, "spans.jsonl")
    with open(path) as spans_file:
        spans = [json.loads(line) for line in spans_file]
    if not spans:
        raise AssertionError(f"{workload}: no spans recorded")
    for index, span in enumerate(spans):
        if span["end_ns"] < span["start_ns"]:
            raise AssertionError(f"{workload}: span {index} not closed")
        parent = span["parent"]
        while parent >= 0:
            outer = spans[parent]
            if outer["request"] != span["request"]:
                raise AssertionError(
                    f"{workload}: span {index} has an ancestor of another request")
            if not outer["start_ns"] <= span["start_ns"] <= span["end_ns"] <= outer["end_ns"]:
                raise AssertionError(
                    f"{workload}: span {index} ({span['name']}) is not inside "
                    f"span {parent} ({outer['name']})")
            parent = outer["parent"]
    return len(spans)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    for workload in (w["name"] for w in spec["workloads"]):
        check_metrics(run(workload, 0), spec["end_to_end"],
                      f"{workload} trace=0")
        check_metrics(run(workload, 1), spec["per_layer"],
                      f"{workload} trace=1")
        spans = check_spans(workload)
        print(f"{workload}: metrics and units ok, {spans} spans nest")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
