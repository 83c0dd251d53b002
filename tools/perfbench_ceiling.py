#!/usr/bin/env python3
"""Fail when a perfbench metric of a saved run exceeds its ceiling.

Usage: perfbench_ceiling.py <run-output> <metric> <max>

<run-output> holds the standard output of one `perfbench/run.py` call, whose last line
is the run's JSON result. The check fails when that run was not correct, when the metric
is missing, or when its value is above <max>. CI uses it on per-op structural counters
of traced runs (for example storage.device_reads_per_op), which a given seed and run
length keep nearly constant from host to host. Stdlib only.
"""
import json
import sys


def fail(msg):
    print(f"perfbench ceiling FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 4:
        fail(f"usage: {sys.argv[0]} <run-output> <metric> <max>")
    path, metric, ceiling = sys.argv[1], sys.argv[2], float(sys.argv[3])
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        fail(f"{path} is empty")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"last line of {path} is not the JSON result: {e}")
    if result.get("correct") is not True or result.get("failed", 1) != 0:
        fail(f"{path}: the run was not correct ({result.get('failed')} failed ops)")
    entry = result.get("metrics", {}).get(metric)
    if not isinstance(entry, dict) or not isinstance(entry.get("value"), (int, float)):
        fail(f"{path} reports no metric '{metric}'")
    value = entry["value"]
    if value > ceiling:
        fail(f"{path}: {metric} = {value:.4f} exceeds its ceiling {ceiling}")
    print(f"ok: {metric} = {value:.4f} <= {ceiling} ({path})")


if __name__ == "__main__":
    main()
