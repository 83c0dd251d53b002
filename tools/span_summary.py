#!/usr/bin/env python3
"""Summarise a perfbench span dump per op kind.

    python3 tools/span_summary.py <spans.json>

The input is the Trace Event file a traced perfbench run writes to
$CARGO_TARGET_DIR/perfbench/spans/<workload>-<seed>.json: one complete ("X")
event per client op, named by op kind, and one per device call made on that
client's thread ("device.read", "device.write", "device.sync"), both carrying
args.op_id. Device calls on other threads are "background.device.*" events and
are left out.

Prints one row per op kind, then an "all" row:

  ops        number of op spans
  mean_us    mean op span duration
  device_us  mean time in the op's device calls
  reads      device reads per op
  writes     device writes per op
  syncs      device syncs per op
  synced     ops that contain a device sync, for every kind but "sync" itself:
             such an op ran a checkpoint (or another sync) on the client thread

Standard library only.
"""

import argparse
import json
import sys
from collections import defaultdict

DEVICE_CALLS = {"device.read": "reads", "device.write": "writes", "device.sync": "syncs"}


def summarise(events):
    """Returns {kind: row} plus the "all" row, each a dict of the columns above."""
    ops = {}  # (tid, op_id) -> [kind, dur_us]
    device = defaultdict(lambda: {"reads": 0, "writes": 0, "syncs": 0, "us": 0.0})
    for e in events:
        if e.get("ph") != "X":
            continue
        name = e["name"]
        key = (e["tid"], e["args"]["op_id"])
        if name in DEVICE_CALLS:
            calls = device[key]
            calls[DEVICE_CALLS[name]] += 1
            calls["us"] += e["dur"]
        elif not name.startswith("background."):
            ops[key] = (name, e["dur"])

    rows = {}
    for key, (kind, dur) in ops.items():
        for row_kind in (kind, "all"):
            row = rows.setdefault(row_kind, {"ops": 0, "us": 0.0, "device_us": 0.0,
                                             "reads": 0, "writes": 0, "syncs": 0,
                                             "synced": 0})
            calls = device.get(key)
            row["ops"] += 1
            row["us"] += dur
            if calls is not None:
                row["device_us"] += calls["us"]
                row["reads"] += calls["reads"]
                row["writes"] += calls["writes"]
                row["syncs"] += calls["syncs"]
                if calls["syncs"] > 0 and kind != "sync":
                    row["synced"] += 1
    return rows


def format_rows(rows):
    header = ("kind", "ops", "mean_us", "device_us", "reads", "writes", "syncs", "synced")
    lines = ["%-10s %7s %9s %9s %6s %6s %6s %7s" % header]
    kinds = sorted(k for k in rows if k != "all") + (["all"] if "all" in rows else [])
    for kind in kinds:
        r = rows[kind]
        n = r["ops"]
        synced = "-" if kind == "sync" else str(r["synced"])
        lines.append("%-10s %7d %9.1f %9.1f %6.2f %6.2f %6.2f %7s" % (
            kind, n, r["us"] / n, r["device_us"] / n, r["reads"] / n, r["writes"] / n,
            r["syncs"] / n, synced))
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spans", help="perfbench span dump (Trace Event JSON)")
    args = parser.parse_args()
    with open(args.spans) as f:
        events = json.load(f)["traceEvents"]
    rows = summarise(events)
    if not rows:
        print(f"{args.spans}: no op spans", file=sys.stderr)
        return 1
    print(format_rows(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
