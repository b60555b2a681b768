#!/usr/bin/env python3
"""Validates the resource-attribution exports of the frappe stats server.

Two checks, either or both per invocation:

  profilez_check.py --folded <profilez.folded> [--min-samples N]
                    [--dominator REGEX] [--min-dominator-share PCT]
      A /debug/profilez capture (folded-stack format, flamegraph.pl
      input): every non-empty line is "frame;frame;... count" with a
      positive integer count and non-empty frames that contain neither
      ';' nor whitespace (the symbolizer sanitizes both). The counts must
      sum to at least --min-samples (default 1). When --dominator is
      given, at least --min-dominator-share percent (default 50) of all
      samples must contain a frame matching the regex — the "is the
      profiler looking at the right process" check (under closure load,
      traversal frames must dominate).

  profilez_check.py --memz <memz.json>
      A /debug/memz body: rss_bytes / peak_rss_bytes /
      query_mem_budget_bytes ints >= 0, a sections object mapping
      non-empty names to non-negative int bytes, and total equal to the
      sum of the sections. rss_bytes must be positive (the process
      exists) and peak_rss_bytes >= rss_bytes is not required (they come
      from different kernel counters sampled at different times), but
      peak_rss_bytes must be positive too.

Exit code 0 when valid, 1 with a diagnostic otherwise.

Run from ctest as the `profilez_check` entry (labels `profile`, `obs`),
against the files the obs_profiler_test fixture exports.
"""

import argparse
import json
import re
import sys

from checklib import fail, load_json

FOLDED_LINE_RE = re.compile(r"^(?P<stack>\S+) (?P<count>\d+)$")

MEMZ_TOP_KEYS = {"rss_bytes", "peak_rss_bytes", "query_mem_budget_bytes",
                 "sections", "total"}


def check_folded(path, min_samples, dominator, min_dominator_share):
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        return fail(f"cannot read {path}: {e}")

    total = 0
    dominated = 0
    stacks = 0
    dom_re = re.compile(dominator) if dominator else None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        m = FOLDED_LINE_RE.match(line)
        if not m:
            return fail(f"{path}:{lineno}: not a folded-stack line"
                        f" ('frame;frame count'): {line!r}")
        count = int(m.group("count"))
        if count < 1:
            return fail(f"{path}:{lineno}: count {count} is not positive")
        frames = m.group("stack").split(";")
        if any(not frame for frame in frames):
            return fail(f"{path}:{lineno}: empty frame in {line!r}")
        stacks += 1
        total += count
        if dom_re is not None and any(dom_re.search(fr) for fr in frames):
            dominated += count

    if total < min_samples:
        return fail(f"{path}: {total} samples, need >= {min_samples}")
    if dom_re is not None:
        share = 100.0 * dominated / total if total else 0.0
        if share < min_dominator_share:
            return fail(f"{path}: only {share:.1f}% of samples contain a"
                        f" frame matching {dominator!r}, need >="
                        f" {min_dominator_share:.0f}%")
        print(f"profilez_check: OK: {total} samples across {stacks} stacks,"
              f" {share:.1f}% matching {dominator!r} in {path}")
    else:
        print(f"profilez_check: OK: {total} samples across {stacks} stacks"
              f" in {path}")
    return 0


def check_memz(path):
    try:
        doc = load_json(path)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"cannot load {path}: {e}")
    if not isinstance(doc, dict):
        return fail(f"{path}: top level is not a JSON object")
    if set(doc.keys()) != MEMZ_TOP_KEYS:
        return fail(f"{path}: top-level keys {sorted(doc.keys())},"
                    f" expected {sorted(MEMZ_TOP_KEYS)}")
    for key in ("rss_bytes", "peak_rss_bytes", "query_mem_budget_bytes"):
        value = doc[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            return fail(f"{path}: {key}={value!r} is not a non-negative int")
    if doc["rss_bytes"] == 0:
        return fail(f"{path}: rss_bytes is 0 (statm read failed?)")
    if doc["peak_rss_bytes"] == 0:
        return fail(f"{path}: peak_rss_bytes is 0 (getrusage failed?)")
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
    print(f"profilez_check: OK: {len(sections)} memz sections, {total}"
          f" attributed bytes, rss {doc['rss_bytes']} in {path}")
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--folded", metavar="FILE",
                        help="/debug/profilez folded-stack capture")
    parser.add_argument("--min-samples", type=int, default=1,
                        help="minimum total sample count (default 1)")
    parser.add_argument("--dominator", metavar="REGEX",
                        help="regex that must match a frame in at least"
                             " --min-dominator-share of samples")
    parser.add_argument("--min-dominator-share", type=float, default=50.0,
                        help="percent of samples the dominator regex must"
                             " cover (default 50)")
    parser.add_argument("--memz", metavar="FILE",
                        help="/debug/memz JSON export to validate")
    args = parser.parse_args()

    if not args.folded and not args.memz:
        parser.error("nothing to check: pass --folded and/or --memz")

    if args.folded:
        rc = check_folded(args.folded, args.min_samples, args.dominator,
                          args.min_dominator_share)
        if rc:
            return rc
    if args.memz:
        rc = check_memz(args.memz)
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
