#!/usr/bin/env python3
"""Validates the /debug/* JSON exports of the frappe stats server.

Three checks, any subset per invocation:

  debugz_check.py --queryz <queryz.json>
      The active-query registry dump (/debug/queryz): now_us (int >= 0),
      a queries array whose entries carry id (int > 0), fp (16 lower-case
      hex chars), query / raw (strings), start_unix_us (int), elapsed_ms
      (number >= 0), steps / db_hits / rows (ints >= 0), operator (string
      or null), cancel_requested (bool), trace_id (32 lower-case hex
      chars) and queue_wait_us (int >= 0), plus a server section with the
      front-door pressure gauges (queue_depth, inflight_bytes,
      inflight_bytes_hw) and the
      queue-wait histogram summary. Unknown keys fail: operators'
      dashboards parse against this schema.

  debugz_check.py --storagez <storagez.json>
      The Table 4 byte breakdown (/debug/storagez): a sections object
      mapping section name -> bytes (int >= 0) and a total equal to the
      sum of the sections.

  debugz_check.py --logz <logz.json>
      The in-memory log ring (/debug/logz): an entries array of
      {ts_us, level, component, message} objects plus a dropped count.

Exit code 0 when valid, 1 with a diagnostic otherwise.

Run from ctest as the `debugz_check` entry (label `obs`), against the
files the obs_debug_endpoints_test fixture exports.
"""

import argparse
import json
import sys

from checklib import FP_RE, TRACE_ID_RE, check_object, fail, load_json

LOG_LEVELS = {"debug", "info", "warn", "error"}

QUERY_SCHEMA = {
    "id": int,
    "fp": str,
    "query": str,
    "raw": str,
    "start_unix_us": int,
    "elapsed_ms": (int, float),
    "steps": int,
    "db_hits": int,
    "rows": int,
    "operator": (str, type(None)),
    "cancel_requested": bool,
    "trace_id": str,
    "queue_wait_us": int,
}

SERVER_SCHEMA = {
    "queue_depth": int,
    "inflight_bytes": int,
    "inflight_bytes_hw": int,
    "queue_wait_us": dict,
}

QUEUE_WAIT_SCHEMA = {
    "count": int,
    "mean": (int, float),
    "p50": (int, float),
    "p99": (int, float),
}

LOG_ENTRY_SCHEMA = {
    "ts_us": int,
    "level": str,
    "component": str,
    "message": str,
}


def check_queryz(path):
    try:
        doc = load_json(path)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"cannot load {path}: {e}")
    if not isinstance(doc, dict):
        return fail(f"{path}: top level is not a JSON object")
    if set(doc.keys()) != {"now_us", "queries", "server"}:
        return fail(f"{path}: top-level keys {sorted(doc.keys())},"
                    " expected ['now_us', 'queries', 'server']")
    if not isinstance(doc["now_us"], int) or isinstance(doc["now_us"], bool) \
            or doc["now_us"] < 0:
        return fail(f"{path}: now_us={doc['now_us']!r} is not a"
                    " non-negative int")
    if not isinstance(doc["queries"], list):
        return fail(f"{path}: queries is not an array")
    for i, entry in enumerate(doc["queries"]):
        where = f"queries[{i}]"
        rc = check_object(path, entry, QUERY_SCHEMA, where)
        if rc:
            return rc
        if entry["id"] <= 0:
            return fail(f"{path}: {where}.id={entry['id']} is not positive")
        if not FP_RE.match(entry["fp"]):
            return fail(f"{path}: {where}.fp={entry['fp']!r} is not 16"
                        " lower-case hex chars")
        for key in ("elapsed_ms", "steps", "db_hits", "rows",
                    "start_unix_us"):
            if entry[key] < 0:
                return fail(f"{path}: {where}.{key}={entry[key]} is"
                            " negative")
        if not entry["query"]:
            return fail(f"{path}: {where}.query is empty")
        if not TRACE_ID_RE.match(entry["trace_id"]):
            return fail(f"{path}: {where}.trace_id={entry['trace_id']!r}"
                        " is not 32 lower-case hex chars")
        if entry["queue_wait_us"] < 0:
            return fail(f"{path}: {where}.queue_wait_us is negative")
    server = doc["server"]
    rc = check_object(path, server, SERVER_SCHEMA, "server")
    if rc:
        return rc
    for key in ("queue_depth", "inflight_bytes", "inflight_bytes_hw"):
        if server[key] < 0:
            return fail(f"{path}: server.{key}={server[key]} is negative")
    rc = check_object(path, server["queue_wait_us"], QUEUE_WAIT_SCHEMA,
                      "server.queue_wait_us")
    if rc:
        return rc
    for key in QUEUE_WAIT_SCHEMA:
        if server["queue_wait_us"][key] < 0:
            return fail(f"{path}: server.queue_wait_us.{key} is negative")
    print(f"debugz_check: OK: {len(doc['queries'])} active queries,"
          f" queue depth {server['queue_depth']} in {path}")
    return 0


def check_storagez(path):
    try:
        doc = load_json(path)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"cannot load {path}: {e}")
    if not isinstance(doc, dict):
        return fail(f"{path}: top level is not a JSON object")
    if set(doc.keys()) != {"sections", "total"}:
        return fail(f"{path}: top-level keys {sorted(doc.keys())},"
                    " expected ['sections', 'total']")
    sections = doc["sections"]
    if not isinstance(sections, dict) or not sections:
        return fail(f"{path}: sections is not a non-empty object")
    for name, value in sections.items():
        if not name:
            return fail(f"{path}: empty section name")
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            return fail(f"{path}: sections[{name!r}]={value!r} is not a"
                        " non-negative int")
    total = doc["total"]
    if not isinstance(total, int) or isinstance(total, bool):
        return fail(f"{path}: total={total!r} is not an int")
    if total != sum(sections.values()):
        return fail(f"{path}: total={total} != sum of sections"
                    f" ({sum(sections.values())})")
    print(f"debugz_check: OK: {len(sections)} storage sections,"
          f" {total} bytes total in {path}")
    return 0


def check_logz(path):
    try:
        doc = load_json(path)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"cannot load {path}: {e}")
    if not isinstance(doc, dict):
        return fail(f"{path}: top level is not a JSON object")
    if set(doc.keys()) != {"entries", "dropped"}:
        return fail(f"{path}: top-level keys {sorted(doc.keys())},"
                    " expected ['entries', 'dropped']")
    if not isinstance(doc["entries"], list):
        return fail(f"{path}: entries is not an array")
    dropped = doc["dropped"]
    if not isinstance(dropped, int) or isinstance(dropped, bool) \
            or dropped < 0:
        return fail(f"{path}: dropped={dropped!r} is not a non-negative int")
    for i, entry in enumerate(doc["entries"]):
        where = f"entries[{i}]"
        rc = check_object(path, entry, LOG_ENTRY_SCHEMA, where)
        if rc:
            return rc
        if entry["ts_us"] < 0:
            return fail(f"{path}: {where}.ts_us={entry['ts_us']} is"
                        " negative")
        if entry["level"] not in LOG_LEVELS:
            return fail(f"{path}: {where}.level={entry['level']!r} not in"
                        f" {sorted(LOG_LEVELS)}")
        if not entry["component"]:
            return fail(f"{path}: {where}.component is empty")
    print(f"debugz_check: OK: {len(doc['entries'])} log entries"
          f" ({dropped} dropped) in {path}")
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--queryz", metavar="FILE",
                        help="/debug/queryz JSON export to validate")
    parser.add_argument("--storagez", metavar="FILE",
                        help="/debug/storagez JSON export to validate")
    parser.add_argument("--logz", metavar="FILE",
                        help="/debug/logz JSON export to validate")
    args = parser.parse_args()

    if not (args.queryz or args.storagez or args.logz):
        parser.error("nothing to check: pass --queryz/--storagez/--logz")

    for flag, checker in (("queryz", check_queryz),
                          ("storagez", check_storagez),
                          ("logz", check_logz)):
        path = getattr(args, flag)
        if path:
            rc = checker(path)
            if rc:
                return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
