#!/usr/bin/env python3
"""Validates frappe workload-telemetry exports.

Two checks, either or both per invocation:

  qlog_check.py <qlog.jsonl> [--min-records N]
      The structured query log: one JSON object per line with the schema
      ToJsonLine writes — ts_us (int >= 0), fp (16 lower-case hex chars),
      trace_id (32 lower-case hex chars), query / raw / status (strings),
      latency_us / rows / db_hits (ints >= 0), fast_path (bool), and the
      latency timeline queue_us / parse_us / plan_us / exec_us, and the
      resources cpu_us / alloc_bytes / peak_bytes (ints >= 0). Unknown
      keys fail: the schema (checklib.QLOG_SCHEMA) is the contract replay
      and downstream pipelines parse against.

  qlog_check.py --metrics <metrics.txt> [qlog.jsonl]
      A Prometheus text exposition (what GET /metrics on the stats server
      returns): every sample names a metric declared by a preceding
      # TYPE line, metric names match the Prometheus grammar, values
      parse as floats, summaries carry quantile labels, and OpenMetrics
      exemplars (`# {trace_id="..."} value ts`) are syntactically valid
      and only appear on histogram bucket samples.

Exit code 0 when valid, 1 with a diagnostic otherwise.

Run from ctest as the `qlog_check` entry (label `obs`), against the files
the query_log_test and stats_server_test fixtures export.
"""

import argparse
import json
import re
import sys

from checklib import (FP_RE, QLOG_SCHEMA, TRACE_ID_RE, check_object,
                      check_non_negative, fail)

QLOG_INT_KEYS = [key for key, kind in QLOG_SCHEMA.items() if kind is int]

METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
TYPE_LINE_RE = re.compile(r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (\w+)$")
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? (?P<value>\S+)"
    r"(?P<exemplar> # \{[^}]*\} \S+(?: \S+)?)?$")
EXEMPLAR_RE = re.compile(
    r"^ # \{trace_id=\"(?P<trace_id>[0-9a-f]{32})\"\}"
    r" (?P<value>\S+)(?: (?P<ts>\S+))?$")


def check_qlog(path, min_records):
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        return fail(f"cannot read {path}: {e}")

    records = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            return fail(f"{path}:{lineno}: not valid JSON: {e}")
        where = f"{path}:{lineno}"
        rc = (check_object(where, record, QLOG_SCHEMA, "record")
              or check_non_negative(where, record, QLOG_INT_KEYS, "record"))
        if rc:
            return rc
        if not FP_RE.match(record["fp"]):
            return fail(f"{path}:{lineno}: fp={record['fp']!r} is not 16"
                        " lower-case hex chars")
        if not TRACE_ID_RE.match(record["trace_id"]):
            return fail(f"{path}:{lineno}: trace_id={record['trace_id']!r}"
                        " is not 32 lower-case hex chars")
        if not record["query"]:
            return fail(f"{path}:{lineno}: empty query")
        if not record["status"]:
            return fail(f"{path}:{lineno}: empty status")
        records += 1

    if records < min_records:
        return fail(f"{path}: only {records} records,"
                    f" need >= {min_records}")
    print(f"qlog_check: OK: {records} query-log records in {path}")
    return 0


def check_metrics(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        return fail(f"cannot read {path}: {e}")

    declared = {}  # metric name -> type
    samples = 0
    summaries_with_quantiles = set()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            m = TYPE_LINE_RE.match(line)
            if not m:
                return fail(f"{path}:{lineno}: malformed TYPE line: {line!r}")
            name, kind = m.group(1), m.group(2)
            if kind not in ("counter", "gauge", "summary", "histogram",
                            "untyped"):
                return fail(f"{path}:{lineno}: unknown metric type {kind!r}")
            declared[name] = kind
            continue
        if line.startswith("#"):
            continue  # HELP / comments
        m = SAMPLE_RE.match(line)
        if not m:
            return fail(f"{path}:{lineno}: malformed sample: {line!r}")
        name = m.group("name")
        # A summary's samples may carry _sum/_count suffixes on the
        # declared family name.
        family = name
        for suffix in ("_sum", "_count", "_bucket"):
            if name.endswith(suffix) and name[:-len(suffix)] in declared:
                family = name[:-len(suffix)]
                break
        if family not in declared:
            return fail(f"{path}:{lineno}: sample {name!r} has no # TYPE"
                        " declaration")
        if not METRIC_NAME_RE.match(name):
            return fail(f"{path}:{lineno}: invalid metric name {name!r}")
        try:
            float(m.group("value"))
        except ValueError:
            return fail(f"{path}:{lineno}: non-numeric value"
                        f" {m.group('value')!r}")
        exemplar = m.group("exemplar")
        if exemplar:
            # OpenMetrics exemplar: only on histogram buckets, labelled
            # with a well-formed trace id, numeric value and timestamp.
            if declared[family] != "histogram" or \
                    not name.endswith("_bucket"):
                return fail(f"{path}:{lineno}: exemplar on non-bucket"
                            f" sample {name!r}")
            ex = EXEMPLAR_RE.match(exemplar)
            if not ex:
                return fail(f"{path}:{lineno}: malformed exemplar"
                            f" {exemplar!r}")
            try:
                float(ex.group("value"))
                if ex.group("ts") is not None:
                    float(ex.group("ts"))
            except ValueError:
                return fail(f"{path}:{lineno}: non-numeric exemplar"
                            f" value/timestamp in {exemplar!r}")
        labels = m.group("labels")
        if labels and 'quantile="' in labels and declared[family] == "summary":
            summaries_with_quantiles.add(family)
        samples += 1

    if not declared:
        return fail(f"{path}: no # TYPE declarations")
    if samples == 0:
        return fail(f"{path}: no samples")
    summaries = {n for n, k in declared.items() if k == "summary"}
    bare = summaries - summaries_with_quantiles
    if bare:
        return fail(f"{path}: summaries without quantile samples:"
                    f" {sorted(bare)}")
    print(f"qlog_check: OK: {samples} samples across {len(declared)}"
          f" metrics in {path}")
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("qlog_file", nargs="?",
                        help="query-log JSONL file to validate")
    parser.add_argument("--min-records", type=int, default=1,
                        help="minimum number of query-log records required")
    parser.add_argument("--metrics", metavar="FILE",
                        help="Prometheus text exposition to validate")
    args = parser.parse_args()

    if not args.qlog_file and not args.metrics:
        parser.error("nothing to check: pass a qlog file and/or --metrics")

    if args.qlog_file:
        rc = check_qlog(args.qlog_file, args.min_records)
        if rc:
            return rc
    if args.metrics:
        rc = check_metrics(args.metrics)
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
