#!/usr/bin/env python3
"""Validates an exported frappe::obs trace file.

Checks that the file is well-formed Chrome trace-event JSON (the format
chrome://tracing and ui.perfetto.dev load): a top-level object with a
"traceEvents" array whose entries are complete duration ("ph": "X") events
with numeric, non-negative ts/dur and integer pid/tid. Events carrying
span identity in args (span_id / parent_id / trace_id, the request-scoped
form) must use 16-hex span ids and a 32-hex trace id.

With --parentage the file must be a single-request span tree (what
/debug/tracez?trace_id=... serves): every event carries args.span_id,
span ids are unique, exactly one root (parent absent from the file) exists
unless the root's parent is the client's remote span, and every child
lies within its parent's [ts, ts+dur] window (1ms slack for clock reads
on either side of scope push/pop).

Usage: trace_check.py <trace.json> [--min-events N] [--parentage]
Exit code 0 when valid, 1 with a diagnostic otherwise.

Run from ctest as the `trace_check` entries (label `obs`), against the
files the trace_test and query_server_test fixtures export.
"""

import argparse
import json
import re
import sys

from checklib import TRACE_ID_RE, fail

REQUIRED_EVENT_KEYS = {"name", "ph", "pid", "tid", "ts", "dur"}
SPAN_ID_RE = re.compile(r"^[0-9a-f]{16}$")
PARENT_SLACK_US = 1000.0


def check_args_identity(i, event):
    """Span identity in args, when present, is well-formed hex."""
    args = event.get("args")
    if args is None:
        return 0
    if not isinstance(args, dict):
        return fail(f"event {i} args is not an object")
    for key in ("span_id", "parent_id"):
        if key in args and not SPAN_ID_RE.match(str(args[key])):
            return fail(f"event {i} args.{key}={args[key]!r} is not 16"
                        " lower-case hex chars")
    if "trace_id" in args and not TRACE_ID_RE.match(str(args["trace_id"])):
        return fail(f"event {i} args.trace_id={args['trace_id']!r} is not"
                    " 32 lower-case hex chars")
    return 0


def check_parentage(events):
    """The events form one span tree with consistent time nesting."""
    by_span = {}
    for i, event in enumerate(events):
        args = event.get("args") or {}
        span_id = args.get("span_id")
        if span_id is None:
            return fail(f"event {i} ({event['name']!r}) lacks args.span_id"
                        " (--parentage expects a request span tree)")
        if span_id in by_span:
            return fail(f"duplicate span_id {span_id}")
        by_span[span_id] = event
    roots = []
    for i, event in enumerate(events):
        parent_id = (event.get("args") or {}).get("parent_id")
        if parent_id is None or parent_id not in by_span:
            # Parent outside the file: the tree root (its parent is the
            # client's remote span, or zero when the server minted it).
            roots.append(event)
            continue
        parent = by_span[parent_id]
        child_start = event["ts"]
        child_end = event["ts"] + event["dur"]
        parent_start = parent["ts"] - PARENT_SLACK_US
        parent_end = parent["ts"] + parent["dur"] + PARENT_SLACK_US
        if child_start < parent_start or child_end > parent_end:
            return fail(
                f"event {i} ({event['name']!r}) [{child_start},"
                f" {child_end}] outside parent {parent['name']!r}"
                f" [{parent['ts']}, {parent['ts'] + parent['dur']}]")
    if not roots:
        return fail("no root span (every parent_id resolves in-file —"
                    " a cycle)")
    if len(roots) > 1:
        names = sorted(e["name"] for e in roots)
        return fail(f"{len(roots)} root spans {names}, expected one tree")
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("trace_file")
    parser.add_argument("--min-events", type=int, default=1,
                        help="minimum number of trace events required")
    parser.add_argument("--parentage", action="store_true",
                        help="require a single consistent span tree")
    args = parser.parse_args()

    try:
        with open(args.trace_file, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        return fail(f"cannot read {args.trace_file}: {e}")
    except json.JSONDecodeError as e:
        return fail(f"not valid JSON: {e}")

    if not isinstance(doc, dict):
        return fail("top level is not a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return fail('missing or non-array "traceEvents"')
    if len(events) < args.min_events:
        return fail(f"only {len(events)} events, need >= {args.min_events}")

    prev_ts = None
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            return fail(f"event {i} is not an object")
        missing = REQUIRED_EVENT_KEYS - event.keys()
        if missing:
            return fail(f"event {i} missing keys: {sorted(missing)}")
        if event["ph"] != "X":
            return fail(f"event {i} has ph={event['ph']!r}, expected 'X'")
        if not isinstance(event["name"], str) or not event["name"]:
            return fail(f"event {i} has an empty or non-string name")
        for key in ("ts", "dur"):
            value = event[key]
            if not isinstance(value, (int, float)) or value < 0:
                return fail(f"event {i} has invalid {key}={value!r}")
        for key in ("pid", "tid"):
            if not isinstance(event[key], int):
                return fail(f"event {i} has non-integer {key}")
        if prev_ts is not None and event["ts"] < prev_ts:
            return fail(f"event {i} not sorted by ts")
        prev_ts = event["ts"]
        rc = check_args_identity(i, event)
        if rc:
            return rc

    if args.parentage:
        rc = check_parentage(events)
        if rc:
            return rc
        print(f"trace_check: OK: {len(events)} events, consistent span"
              f" tree in {args.trace_file}")
        return 0

    print(f"trace_check: OK: {len(events)} events in {args.trace_file}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
