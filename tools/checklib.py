"""Shared pieces of the frappe export checkers in this directory.

Each checker imports this module (Python puts the script's own directory
on sys.path, so `python3 tools/<checker>.py` finds it): the failure
reporter, the JSON loader, the strict object check, the id patterns, and
the key tables of the per-query record (obs::QueryRecord) as the query
log, the /query response and /stats render it.
"""

import json
import os
import re
import sys

# The running checker's name ("qlog_check"), the prefix of its messages.
TOOL = os.path.splitext(os.path.basename(sys.argv[0]))[0]

FP_RE = re.compile(r"^[0-9a-f]{16}$")
TRACE_ID_RE = re.compile(r"^[0-9a-f]{32}$")

# Where one query's latency went (obs::QueryRecord's timeline; /stats
# reports its per-fingerprint average).
TIMELINE_SCHEMA = {
    "queue_us": int,
    "parse_us": int,
    "plan_us": int,
    "exec_us": int,
}

# One structured query-log line (obs::ToJsonLine).
QLOG_SCHEMA = {
    "ts_us": int,
    "fp": str,
    "trace_id": str,
    "query": str,
    "raw": str,
    "status": str,
    "latency_us": int,
    "rows": int,
    "db_hits": int,
    "fast_path": bool,
    **TIMELINE_SCHEMA,
    "cpu_us": int,
    "alloc_bytes": int,
    "peak_bytes": int,
}

# The "stats" object of a POST /query response.
STATS_SCHEMA = {
    "elapsed_ms": (int, float),
    "rows": int,
    "steps": int,
    "db_hits": int,
    "fast_path": bool,
    "cpu_us": int,
    "alloc_bytes": int,
    "peak_bytes": int,
    "scanned_bytes": int,
}


def fail(message):
    print(f"{TOOL}: FAIL: {message}", file=sys.stderr)
    return 1


def load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def check_object(path, obj, schema, where):
    """Strict schema check: exact key set, typed values, ints non-bool."""
    if not isinstance(obj, dict):
        return fail(f"{path}: {where} is not a JSON object")
    missing = schema.keys() - obj.keys()
    if missing:
        return fail(f"{path}: {where} missing keys: {sorted(missing)}")
    unknown = obj.keys() - schema.keys()
    if unknown:
        return fail(f"{path}: {where} unknown keys: {sorted(unknown)}")
    for key, expected in schema.items():
        value = obj[key]
        kinds = expected if isinstance(expected, tuple) else (expected,)
        # bool is an int subclass in Python; keep int checks strict.
        if bool not in kinds and isinstance(value, bool):
            return fail(f"{path}: {where}.{key}={value!r} is a bool")
        if not isinstance(value, kinds):
            names = "/".join(k.__name__ for k in kinds)
            return fail(f"{path}: {where}.{key}={value!r} is not {names}")
    return 0


def check_non_negative(path, obj, keys, where):
    """Every numeric value under `keys` is >= 0 (bools are skipped)."""
    for key in keys:
        value = obj[key]
        if not isinstance(value, bool) and value < 0:
            return fail(f"{path}: {where}.{key}={value!r} is negative")
    return 0
