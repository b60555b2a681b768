#!/usr/bin/env python3
"""Validates the query front door's wire contract from captured exchanges.

Three checks, any subset per invocation:

  server_check.py --query <server_query.json>
      A successful POST /query response body: columns (array of strings),
      rows (array of arrays of strings, each row as wide as columns),
      stats {elapsed_ms, rows, steps, db_hits, fast_path, cpu_us,
      alloc_bytes, peak_bytes, scanned_bytes} with rows equal
      to len(rows), epoch (int >= 1), trace_id (32 lower-case hex chars),
      timeline {queue_us, parse_us, plan_us, exec_us, serialize_us,
      total_us} (ints >= 0), and optionally plan (string). Unknown keys
      fail: clients parse against this schema.

  server_check.py --overload <server_overload.http>
      A raw 429 shed exchange: status line "HTTP/1.0 429 Too Many
      Requests", a Retry-After header whose value is a positive integer,
      Content-Type application/json, and a JSON body carrying error +
      status == 429.

  server_check.py --readyz <state> <readyz.json>
      A /readyz body: {"state": <state>, "reason": string-or-null}, with
      a non-null reason for every state except "ready".

Exit code 0 when valid, 1 with a diagnostic otherwise.

Run from ctest as the `server_check` entry (label `server`), against the
files the query_server_test fixture exports.
"""

import argparse
import json
import sys

from checklib import (STATS_SCHEMA, TIMELINE_SCHEMA, TRACE_ID_RE,
                      check_non_negative, check_object, fail, load_json)

READYZ_STATES = {"ready", "degraded", "overloaded", "draining"}

# The /query timeline adds the server's own phases to the record's.
SERVER_TIMELINE_SCHEMA = {**TIMELINE_SCHEMA, "serialize_us": int,
                          "total_us": int}


def check_query(path):
    try:
        doc = load_json(path)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"cannot load {path}: {e}")
    if not isinstance(doc, dict):
        return fail(f"{path}: top level is not a JSON object")
    allowed = {"columns", "rows", "stats", "epoch", "plan", "trace_id",
               "timeline"}
    required = {"columns", "rows", "stats", "epoch", "trace_id", "timeline"}
    missing = required - doc.keys()
    if missing:
        return fail(f"{path}: missing keys: {sorted(missing)}")
    unknown = doc.keys() - allowed
    if unknown:
        return fail(f"{path}: unknown keys: {sorted(unknown)}")

    columns = doc["columns"]
    if not isinstance(columns, list) or not columns or \
            not all(isinstance(c, str) and c for c in columns):
        return fail(f"{path}: columns is not a non-empty string array")
    rows = doc["rows"]
    if not isinstance(rows, list):
        return fail(f"{path}: rows is not an array")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(columns):
            return fail(f"{path}: rows[{i}] is not an array of"
                        f" {len(columns)} cells")
        if not all(isinstance(cell, str) for cell in row):
            return fail(f"{path}: rows[{i}] has a non-string cell")

    stats = doc["stats"]
    rc = (check_object(path, stats, STATS_SCHEMA, "stats")
          or check_non_negative(path, stats, STATS_SCHEMA, "stats"))
    if rc:
        return rc
    if stats["rows"] != len(rows):
        return fail(f"{path}: stats.rows={stats['rows']} !="
                    f" len(rows)={len(rows)}")

    epoch = doc["epoch"]
    if not isinstance(epoch, int) or isinstance(epoch, bool) or epoch < 1:
        return fail(f"{path}: epoch={epoch!r} is not a positive int")
    if "plan" in doc and not isinstance(doc["plan"], str):
        return fail(f"{path}: plan is not a string")

    trace_id = doc["trace_id"]
    if not isinstance(trace_id, str) or not TRACE_ID_RE.match(trace_id):
        return fail(f"{path}: trace_id={trace_id!r} is not 32 lower-case"
                    " hex chars")
    timeline = doc["timeline"]
    rc = (check_object(path, timeline, SERVER_TIMELINE_SCHEMA, "timeline")
          or check_non_negative(path, timeline, SERVER_TIMELINE_SCHEMA,
                                "timeline"))
    if rc:
        return rc
    components = sum(timeline[k] for k in SERVER_TIMELINE_SCHEMA
                     if k != "total_us")
    if components > 0 and timeline["total_us"] == 0:
        return fail(f"{path}: timeline.total_us=0 with nonzero components")
    print(f"server_check: OK: {len(rows)} rows x {len(columns)} columns,"
          f" epoch {epoch} in {path}")
    return 0


def check_overload(path):
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            raw = f.read()
    except OSError as e:
        return fail(f"cannot load {path}: {e}")
    head, sep, body = raw.partition("\r\n\r\n")
    if not sep:
        return fail(f"{path}: no header/body separator")
    lines = head.split("\r\n")
    if not lines[0].startswith("HTTP/1.0 429"):
        return fail(f"{path}: status line {lines[0]!r} is not HTTP/1.0 429")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    retry_after = headers.get("retry-after")
    if retry_after is None:
        return fail(f"{path}: no Retry-After header on a 429")
    if not retry_after.isdigit() or int(retry_after) < 1:
        return fail(f"{path}: Retry-After={retry_after!r} is not a"
                    " positive integer")
    if "application/json" not in headers.get("content-type", ""):
        return fail(f"{path}: 429 body is not application/json")
    try:
        doc = json.loads(body)
    except json.JSONDecodeError as e:
        return fail(f"{path}: 429 body is not valid JSON: {e}")
    if not isinstance(doc, dict) or "error" not in doc or \
            doc.get("status") != 429:
        return fail(f"{path}: 429 body {doc!r} lacks error/status=429")
    print(f"server_check: OK: 429 shed with Retry-After={retry_after}"
          f" in {path}")
    return 0


def check_readyz(state, path):
    if state not in READYZ_STATES:
        return fail(f"--readyz state {state!r} not in"
                    f" {sorted(READYZ_STATES)}")
    try:
        doc = load_json(path)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"cannot load {path}: {e}")
    if not isinstance(doc, dict) or set(doc.keys()) != {"state", "reason"}:
        return fail(f"{path}: expected exactly {{state, reason}}, got"
                    f" {doc!r}")
    if doc["state"] != state:
        return fail(f"{path}: state={doc['state']!r}, expected {state!r}")
    reason = doc["reason"]
    if state == "ready":
        if reason is not None:
            return fail(f"{path}: ready must carry reason=null,"
                        f" got {reason!r}")
    elif not isinstance(reason, str) or not reason:
        return fail(f"{path}: state {state!r} needs a non-empty string"
                    f" reason, got {reason!r}")
    print(f"server_check: OK: readyz state {state!r} in {path}")
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--query", metavar="FILE",
                        help="POST /query 200 body to validate")
    parser.add_argument("--overload", metavar="FILE",
                        help="raw 429 shed exchange to validate")
    parser.add_argument("--readyz", nargs=2, action="append",
                        metavar=("STATE", "FILE"), default=[],
                        help="a /readyz body that must report STATE")
    args = parser.parse_args()

    if not (args.query or args.overload or args.readyz):
        parser.error("nothing to check: pass --query/--overload/--readyz")

    if args.query:
        rc = check_query(args.query)
        if rc:
            return rc
    if args.overload:
        rc = check_overload(args.overload)
        if rc:
            return rc
    for state, path in args.readyz:
        rc = check_readyz(state, path)
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
