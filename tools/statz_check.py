#!/usr/bin/env python3
"""Validates the cardinality-observability exports of the frappe stats server.

Two checks, any subset per invocation:

  statz_check.py --statz <statz_export.json>
      The /debug/statz document: a catalog (the persisted ANALYZE stats
      catalog, or null before the first ANALYZE), the active
      FRAPPE_MISESTIMATE_QERROR threshold (number or null), the
      worst-q-error fingerprint table, and the retained misestimates
      (each with the 32-hex trace id that joins it to /stats and
      /debug/tracez). Unknown keys fail: operators' dashboards parse
      against this schema.

  statz_check.py --metrics <metrics.txt>
      A /metrics capture: the catalog gauges (frappe_catalog_nodes /
      _edges / _bytes), the frappe_catalog_builds_total counter, the
      frappe_plan_qerror_x100 summary and the
      frappe_plan_misestimates_total counter must all be present with
      sane values.

Exit code 0 when valid, 1 with a diagnostic otherwise.

Run from ctest as the `statz_check` entry (labels `obs;stats`), against
the files the obs_statz_test fixture exports.
"""

import argparse
import json
import re
import sys

from checklib import (FP_RE, TIMELINE_SCHEMA, TRACE_ID_RE, check_object,
                      fail, load_json)

CATALOG_SCHEMA = {
    "node_count": int,
    "edge_count": int,
    "bytes": int,
    "node_types": dict,
    "edge_types": list,
    "hubs": list,
    "index_fields": list,
}

EDGE_TYPE_SCHEMA = {
    "name": str,
    "count": int,
    "distinct_sources": int,
    "distinct_targets": int,
    "avg_out_fanout": (int, float),
    "avg_in_fanout": (int, float),
    "out_degree_bins": list,
    "in_degree_bins": list,
}

HUB_SCHEMA = {
    "id": int,
    "degree": int,
    "name": str,
    "type": str,
}

INDEX_FIELD_SCHEMA = {
    "field": str,
    "distinct_terms": int,
    "postings": int,
}

FINGERPRINT_SCHEMA = {
    "fp": str,
    "query": str,
    "calls": int,
    "errors": int,
    "total_latency_us": int,
    "avg_latency_us": int,
    "max_latency_us": int,
    "p99_latency_us": int,
    "rows": int,
    "db_hits": int,
    "worst_qerror": (int, float),
    "cpu_us_total": int,
    "alloc_bytes_total": int,
    "peak_bytes": int,
    "timeline": dict,
}

MISESTIMATE_SCHEMA = {
    "ts_us": int,
    "fp": str,
    "trace_id": str,
    "query": str,
    "est_rows": (int, float),
    "actual_rows": int,
    "qerror": (int, float),
}


def check_bins(path, bins, where):
    """Degree bins are [min, max, count] triples with min <= max."""
    for i, bin_ in enumerate(bins):
        spot = f"{where}[{i}]"
        if (not isinstance(bin_, list) or len(bin_) != 3
                or any(isinstance(v, bool) or not isinstance(v, int)
                       or v < 0 for v in bin_)):
            return fail(f"{path}: {spot}={bin_!r} is not a non-negative"
                        " [min, max, count] triple")
        if bin_[0] > bin_[1]:
            return fail(f"{path}: {spot} has min {bin_[0]} > max {bin_[1]}")
    return 0


def check_catalog(path, catalog):
    rc = check_object(path, catalog, CATALOG_SCHEMA, "catalog")
    if rc:
        return rc
    for key in ("node_count", "edge_count", "bytes"):
        if catalog[key] < 0:
            return fail(f"{path}: catalog.{key}={catalog[key]} is negative")
    node_type_total = 0
    for name, count in catalog["node_types"].items():
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            return fail(f"{path}: catalog.node_types[{name!r}]={count!r} is"
                        " not a non-negative int")
        node_type_total += count
    if node_type_total != catalog["node_count"]:
        return fail(f"{path}: node_types sum {node_type_total} !="
                    f" node_count {catalog['node_count']}")
    edge_type_total = 0
    for i, et in enumerate(catalog["edge_types"]):
        where = f"catalog.edge_types[{i}]"
        rc = check_object(path, et, EDGE_TYPE_SCHEMA, where)
        if rc:
            return rc
        edge_type_total += et["count"]
        if et["count"] > 0 and et["distinct_sources"] == 0:
            return fail(f"{path}: {where} has edges but no distinct sources")
        for bins_key in ("out_degree_bins", "in_degree_bins"):
            rc = check_bins(path, et[bins_key], f"{where}.{bins_key}")
            if rc:
                return rc
    if edge_type_total != catalog["edge_count"]:
        return fail(f"{path}: edge_types sum {edge_type_total} !="
                    f" edge_count {catalog['edge_count']}")
    previous_degree = None
    for i, hub in enumerate(catalog["hubs"]):
        where = f"catalog.hubs[{i}]"
        rc = check_object(path, hub, HUB_SCHEMA, where)
        if rc:
            return rc
        if previous_degree is not None and hub["degree"] > previous_degree:
            return fail(f"{path}: {where} degree {hub['degree']} out of"
                        " descending order")
        previous_degree = hub["degree"]
    for i, field in enumerate(catalog["index_fields"]):
        where = f"catalog.index_fields[{i}]"
        rc = check_object(path, field, INDEX_FIELD_SCHEMA, where)
        if rc:
            return rc
        if field["postings"] < field["distinct_terms"]:
            return fail(f"{path}: {where} has fewer postings"
                        f" ({field['postings']}) than distinct terms"
                        f" ({field['distinct_terms']})")
    return 0


def check_statz(path):
    try:
        doc = load_json(path)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"cannot load {path}: {e}")
    if not isinstance(doc, dict):
        return fail(f"{path}: top level is not a JSON object")
    expected = {"catalog", "misestimate_threshold", "worst_fingerprints",
                "misestimates"}
    if set(doc.keys()) != expected:
        return fail(f"{path}: top-level keys {sorted(doc.keys())},"
                    f" expected {sorted(expected)}")
    if doc["catalog"] is not None:
        rc = check_catalog(path, doc["catalog"])
        if rc:
            return rc
    threshold = doc["misestimate_threshold"]
    if threshold is not None:
        if isinstance(threshold, bool) \
                or not isinstance(threshold, (int, float)) or threshold <= 0:
            return fail(f"{path}: misestimate_threshold={threshold!r} is"
                        " not a positive number")
    if not isinstance(doc["worst_fingerprints"], list):
        return fail(f"{path}: worst_fingerprints is not an array")
    previous_q = None
    for i, entry in enumerate(doc["worst_fingerprints"]):
        where = f"worst_fingerprints[{i}]"
        rc = check_object(path, entry, FINGERPRINT_SCHEMA, where)
        if rc:
            return rc
        if not FP_RE.match(entry["fp"]):
            return fail(f"{path}: {where}.fp={entry['fp']!r} is not 16"
                        " lower-case hex chars")
        rc = check_object(path, entry["timeline"], TIMELINE_SCHEMA,
                          f"{where}.timeline")
        if rc:
            return rc
        for key in TIMELINE_SCHEMA:
            if entry["timeline"][key] < 0:
                return fail(f"{path}: {where}.timeline.{key} is negative")
        if entry["worst_qerror"] < 0:
            return fail(f"{path}: {where}.worst_qerror is negative")
        if previous_q is not None and entry["worst_qerror"] > previous_q:
            return fail(f"{path}: {where} worst_qerror out of descending"
                        " order")
        previous_q = entry["worst_qerror"]
    if not isinstance(doc["misestimates"], list):
        return fail(f"{path}: misestimates is not an array")
    for i, entry in enumerate(doc["misestimates"]):
        where = f"misestimates[{i}]"
        rc = check_object(path, entry, MISESTIMATE_SCHEMA, where)
        if rc:
            return rc
        if not FP_RE.match(entry["fp"]):
            return fail(f"{path}: {where}.fp={entry['fp']!r} is not 16"
                        " lower-case hex chars")
        if not TRACE_ID_RE.match(entry["trace_id"]):
            return fail(f"{path}: {where}.trace_id={entry['trace_id']!r} is"
                        " not 32 lower-case hex chars")
        # A recorded misestimate crossed a threshold >= 1 by construction.
        if entry["qerror"] < 1:
            return fail(f"{path}: {where}.qerror={entry['qerror']} < 1")
        if entry["est_rows"] < 0 or entry["actual_rows"] < 0:
            return fail(f"{path}: {where} has negative row counts")
    catalog_note = ("null catalog" if doc["catalog"] is None else
                    f"catalog of {doc['catalog']['node_count']} nodes")
    print(f"statz_check: OK: {catalog_note},"
          f" {len(doc['worst_fingerprints'])} fingerprints,"
          f" {len(doc['misestimates'])} misestimates in {path}")
    return 0


METRIC_RES = {
    "frappe_catalog_nodes":
        re.compile(r"^frappe_catalog_nodes (\d+)$", re.M),
    "frappe_catalog_edges":
        re.compile(r"^frappe_catalog_edges (\d+)$", re.M),
    "frappe_catalog_bytes":
        re.compile(r"^frappe_catalog_bytes (\d+)$", re.M),
    "frappe_catalog_builds_total":
        re.compile(r"^frappe_catalog_builds_total (\d+)$", re.M),
    "frappe_plan_qerror_x100_count":
        re.compile(r"^frappe_plan_qerror_x100_count (\d+)$", re.M),
    "frappe_plan_misestimates_total":
        re.compile(r"^frappe_plan_misestimates_total (\d+)$", re.M),
}


def check_metrics(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        return fail(f"cannot load {path}: {e}")
    values = {}
    for name, regex in METRIC_RES.items():
        match = regex.search(text)
        if not match:
            return fail(f"{path}: metric {name} missing")
        values[name] = int(match.group(1))
    if "# TYPE frappe_plan_qerror_x100 summary" not in text:
        return fail(f"{path}: frappe_plan_qerror_x100 is not typed as a"
                    " summary")
    if values["frappe_catalog_builds_total"] < 1:
        return fail(f"{path}: frappe_catalog_builds_total is 0 — the"
                    " fixture ran ANALYZE")
    if values["frappe_catalog_nodes"] < 1:
        return fail(f"{path}: frappe_catalog_nodes is 0 after ANALYZE")
    if values["frappe_catalog_bytes"] < 1:
        return fail(f"{path}: frappe_catalog_bytes is 0 after ANALYZE")
    if values["frappe_plan_qerror_x100_count"] < 1:
        return fail(f"{path}: no q-error observations recorded")
    print(f"statz_check: OK: catalog of {values['frappe_catalog_nodes']}"
          f" nodes / {values['frappe_catalog_bytes']} bytes,"
          f" {values['frappe_plan_qerror_x100_count']} q-error samples,"
          f" {values['frappe_plan_misestimates_total']} misestimates"
          f" in {path}")
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--statz", metavar="FILE",
                        help="/debug/statz JSON export to validate")
    parser.add_argument("--metrics", metavar="FILE",
                        help="/metrics capture to validate")
    args = parser.parse_args()

    if not (args.statz or args.metrics):
        parser.error("nothing to check: pass --statz/--metrics")

    for flag, checker in (("statz", check_statz),
                          ("metrics", check_metrics)):
        path = getattr(args, flag)
        if path:
            rc = checker(path)
            if rc:
                return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
