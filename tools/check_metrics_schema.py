#!/usr/bin/env python3
"""Validate a DumpMetrics() JSON document against the documented schema.

Usage: check_metrics_schema.py <metrics.json>

Pins the schema described in docs/OBSERVABILITY.md: required top-level keys,
the minimum counter/histogram/gauge sets the acceptance criteria name, the shape of
every histogram entry and lock-stats block, and the filesystem scope's
per-shard array (one entry per shard, on one shard too). Stdlib only (json)
so it runs in any CI image with python3.
"""
import json
import sys

REQUIRED_TOP = ["schema_version", "scope", "counters", "histograms", "gauges", "locks"]

# Histograms that must exist with a recorded sample after a bench_query run is a
# smaller set; existence (key present with the right shape) is required for all.
REQUIRED_HISTOGRAMS = [
    "create",
    "add_tag",
    "find",
    "search_text",
    "journal_commit",
    "page_read",
    "sync",
]

HIST_FIELDS = ["count", "sum_ns", "mean_ns", "p50_ns", "p90_ns", "p99_ns", "max_ns"]

# Counters both scopes must emit (every counter is process-wide, so both scopes carry
# the same set).
REQUIRED_COUNTERS = [
    # Device reads Pager::WriteRaw makes to stamp a partly written page; writes into
    # fresh extents make none.
    "raw_write_readbacks",
    # Pager::ReadRaw calls served from resident pages, and calls that read the device.
    "raw_cache_hits",
    "raw_cache_misses",
]

REQUIRED_GAUGES = [
    "journal_occupancy_pct",
    # The accounted fill the checkpoint kick and the backstop read (both scopes).
    "journal_reserved_pct",
    "pager_resident_pages",
    "pager_dirty_pages",
    "checkpointer_state",
    "io_submitted",
    "io_completed",
    "io_in_flight",
    "io_max_queue_depth",
    # Fault-domain health (both scopes).
    "volume_health",
    "volume_health_name",
    "checksums_enabled",
    "scrub_passes",
    "quarantined_pages",
]

# Gauges only the filesystem scope emits, and must: retention is a cluster notion.
REQUIRED_FILESYSTEM_GAUGES = [
    # Records the data shards keep until a metadata-shard checkpoint (0 on one shard).
    "retained_records",
]

# Every gauge DumpMetrics may emit, per scope. An emitter adding a gauge without
# updating this list (and docs/OBSERVABILITY.md) fails the check: unknown keys
# are how schema drift sneaks past dashboards.
KNOWN_GAUGES = {
    "filesystem": set(REQUIRED_GAUGES)
    | set(REQUIRED_FILESYSTEM_GAUGES)
    | {
        "journal_pending_records",
        "indexer_queue_depth",
        "object_count",
        "shard_count",
    },
    "osd": set(REQUIRED_GAUGES)
    | {
        "journal_pending_records",
        "object_count",
        "heap_allocated_bytes",
    },
}

# Gauges that must be integers.
INT_IO_GAUGES = [
    "io_submitted",
    "io_completed",
    "io_in_flight",
    "io_max_queue_depth",
]

LOCK_FIELDS = ["total_acquisitions", "total_contentions", "top_contended"]


def fail(msg):
    print(f"schema check FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def check_lock_block(name, block):
    for field in LOCK_FIELDS:
        if field not in block:
            fail(f"locks.{name} missing '{field}'")
    if not isinstance(block["top_contended"], list):
        fail(f"locks.{name}.top_contended is not an array")
    for entry in block["top_contended"]:
        for field in ["shard", "acquisitions", "contentions"]:
            if not isinstance(entry.get(field), int):
                fail(f"locks.{name}.top_contended entry missing int '{field}'")


def check_shards(doc, gauges):
    """The filesystem scope lists every shard, one shard included, in index order."""
    if "shards" not in doc:
        fail("filesystem scope missing 'shards'")
    shards = doc["shards"]
    if not isinstance(shards, list):
        fail("'shards' is not an array")
    count = gauges.get("shard_count")
    if not isinstance(count, int) or count < 1:
        fail(f"gauge 'shard_count' must be a positive integer, got {count!r}")
    if len(shards) != count:
        fail(f"'shards' has {len(shards)} entries, gauge 'shard_count' is {count}")
    for k, entry in enumerate(shards):
        if not isinstance(entry, dict) or entry.get("shard") != k:
            fail(f"shards entry {k} does not carry 'shard': {k}")
        if not isinstance(entry.get("retained_records"), int):
            fail(f"shards entry {k} missing int 'retained_records'")


def main():
    if len(sys.argv) != 2:
        fail(f"usage: {sys.argv[0]} <metrics.json>")
    with open(sys.argv[1]) as f:
        doc = json.load(f)

    for key in REQUIRED_TOP:
        if key not in doc:
            fail(f"missing top-level key '{key}'")
    if doc["schema_version"] != 1:
        fail(f"unexpected schema_version {doc['schema_version']}")
    if doc["scope"] not in ("filesystem", "osd"):
        fail(f"unexpected scope '{doc['scope']}'")

    counters = doc["counters"]
    if not counters or not all(isinstance(v, int) for v in counters.values()):
        fail("counters must be a non-empty object of integers")
    for name in REQUIRED_COUNTERS:
        if name not in counters:
            fail(f"missing counter '{name}'")

    hists = doc["histograms"]
    for name in REQUIRED_HISTOGRAMS:
        if name not in hists:
            fail(f"missing histogram '{name}'")
    for name, h in hists.items():
        for field in HIST_FIELDS:
            if not isinstance(h.get(field), int):
                fail(f"histogram '{name}' missing int field '{field}'")
        if h["count"] > 0 and h["max_ns"] < h["p50_ns"]:
            fail(f"histogram '{name}': max_ns < p50_ns")

    gauges = doc["gauges"]
    required = REQUIRED_GAUGES
    if doc["scope"] == "filesystem":
        required = required + REQUIRED_FILESYSTEM_GAUGES
    for name in required:
        if name not in gauges:
            fail(f"missing gauge '{name}'")
    unknown = sorted(set(gauges) - KNOWN_GAUGES[doc["scope"]])
    if unknown:
        fail(
            f"unknown gauge(s) {unknown} for scope '{doc['scope']}' — "
            "add them to KNOWN_GAUGES and docs/OBSERVABILITY.md"
        )
    if not isinstance(gauges["volume_health_name"], str):
        fail("gauge 'volume_health_name' must be a string")
    if gauges["volume_health_name"] not in ("healthy", "degraded", "read_only", "failed"):
        fail(f"unexpected volume_health_name '{gauges['volume_health_name']}'")
    for name in INT_IO_GAUGES:
        if not isinstance(gauges[name], int):
            fail(f"gauge '{name}' must be an integer")
    for name in ("volume_health", "checksums_enabled", "scrub_passes",
                 "quarantined_pages"):
        if not isinstance(gauges[name], int):
            fail(f"gauge '{name}' must be an integer")
    if doc["scope"] == "filesystem":
        if not isinstance(gauges["retained_records"], int):
            fail("gauge 'retained_records' must be an integer")
        check_shards(doc, gauges)
    if not 0 <= gauges["volume_health"] <= 3:
        fail(f"gauge 'volume_health' out of range: {gauges['volume_health']}")
    if gauges["checksums_enabled"] not in (0, 1):
        fail("gauge 'checksums_enabled' must be 0 or 1")

    locks = doc["locks"]
    if "pager_stripes" not in locks:
        fail("locks missing 'pager_stripes'")
    for name, block in locks.items():
        check_lock_block(name, block)

    print(
        f"schema OK: scope={doc['scope']} "
        f"{len(counters)} counters, {len(hists)} histograms, {len(gauges)} gauges"
    )


if __name__ == "__main__":
    main()
