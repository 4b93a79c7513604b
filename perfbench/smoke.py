#!/usr/bin/env python3
"""Smoke test for perfbench at tiny sizes.

Runs every workload with `--size smoke`, untraced and traced, on two
seeds, through the same command BENCHMARK.json names. Checks that the
last line is the result object with exactly the expected keys, that every
declared metric prints once with its declared unit and a finite value,
that the run states the tail percentile (untraced) or writes its spans
(traced), and that a debug build refuses to time anything.

Usage, from the repository root:  python3 perfbench/smoke.py
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    print(f"smoke: FAIL: {msg}")
    sys.exit(1)


def run(cmd):
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)


def check_result(spec, workload, seed, trace, out):
    what = f"{workload} seed={seed} trace={trace}"
    if out.returncode != 0:
        fail(f"{what}: exit {out.returncode}\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        fail(f"{what}: last line is not JSON ({e})")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{what}: correct={result['correct']} failed={result['failed']} attempted={result['attempted']}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    if list(metrics) != [m["name"] for m in declared]:
        missing = {m["name"] for m in declared} ^ set(metrics)
        fail(f"{what}: metric names differ from BENCHMARK.json: {sorted(missing)}")
    for m in declared:
        got = metrics[m["name"]]
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"]:
            fail(f"{what}: {m['name']} printed as {got}, declared unit {m['unit']}")
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            fail(f"{what}: {m['name']} value {got['value']!r}")
    if not any(line.startswith("manifest: ") for line in lines):
        fail(f"{what}: no manifest line")
    if trace:
        trace_file = os.path.join(ROOT, ".bench_out", f"trace-{workload}-seed{seed}.json")
        with open(trace_file) as f:
            spans = json.load(f)["spans"]
        if not spans or not any(s["search"] > 0 for s in spans):
            fail(f"{what}: trace file has no search spans")
    tail_line = "search_s_tail: p" if trace else "cpu_s_per_search_tail: p"
    if not any(line.startswith(tail_line) for line in lines):
        fail(f"{what}: the tail percentile and sample count are not stated")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    command = spec["command"]
    for w in spec["workloads"]:
        for seed in (1, 2):
            for trace in (0, 1):
                args = ["--workload", w["name"], "--seed", str(seed), "--seconds", "1",
                        "--trace", str(trace), "--size", "smoke"]
                r = check_result(spec, w["name"], seed, trace, run(command + args))
                print(f"smoke: ok {w['name']} seed={seed} trace={trace} attempted={r['attempted']}")

    # A debug build must refuse to time anything and print no result.
    debug = [c for c in command if c != "--release"]
    out = run(debug + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                       "--seconds", "1", "--trace", "0", "--size", "smoke"])
    if out.returncode == 0 or out.stdout.strip().endswith("}"):
        fail("a debug build timed a run")
    print("smoke: ok debug build refused")


if __name__ == "__main__":
    main()
