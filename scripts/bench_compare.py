#!/usr/bin/env python3
"""Diff two BENCH_*.json files and fail on performance regressions.

Usage:
    scripts/bench_compare.py BASELINE.json CANDIDATE.json [--threshold 0.10]

Rows of the "storage" array (the E13 bulk-load rows, BENCH_e13.json) are
matched on their (workload, op) key. For every timing field present in both matched rows (any numeric field
ending in "_ms"), the candidate must not be more than THRESHOLD slower
than the baseline. Exit status is nonzero if any matched row regresses,
so CI can gate merges on it. Unmatched rows are reported but never fail
the comparison (grids legitimately grow and shrink between experiments).
"""

import argparse
import json
import sys


# Logical row pools: each pool lists the array keys that hold rows of that
# shape and the fields that identify a row.
ROW_POOLS = (
    ("storage", ("storage",), ("workload", "op")),
)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        sys.exit(f"bench_compare: cannot read {path}: {error}")


def index_rows(doc, array_keys, id_fields):
    rows = {}
    for array_key in array_keys:
        for row in doc.get(array_key, []):
            if not all(field in row for field in id_fields):
                continue
            rows[tuple(row[field] for field in id_fields)] = row
    return rows


def timing_fields(row):
    return {
        key
        for key, value in row.items()
        if key.endswith("_ms") and isinstance(value, (int, float))
    }


def main():
    parser = argparse.ArgumentParser(
        description="Compare two bench JSON files for regressions."
    )
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="allowed slowdown fraction before a row fails (default 0.10)",
    )
    args = parser.parse_args()

    base_doc = load(args.baseline)
    cand_doc = load(args.candidate)

    compared = 0
    regressions = []
    unmatched = 0
    for pool_name, array_keys, id_fields in ROW_POOLS:
        base_rows = index_rows(base_doc, array_keys, id_fields)
        cand_rows = index_rows(cand_doc, array_keys, id_fields)
        if not base_rows or not cand_rows:
            continue
        for key, base_row in sorted(base_rows.items(), key=str):
            cand_row = cand_rows.get(key)
            if cand_row is None:
                unmatched += 1
                continue
            label = ", ".join(
                f"{field}={value}" for field, value in zip(id_fields, key)
            )
            for field in sorted(timing_fields(base_row) & timing_fields(cand_row)):
                base_ms = base_row[field]
                cand_ms = cand_row[field]
                compared += 1
                if base_ms <= 0.0:
                    continue
                slowdown = cand_ms / base_ms - 1.0
                marker = ""
                if slowdown > args.threshold:
                    marker = "  <-- REGRESSION"
                    regressions.append((label, field, base_ms, cand_ms, slowdown))
                print(
                    f"[{pool_name}] {label} {field}: "
                    f"{base_ms:.3f} -> {cand_ms:.3f} ms "
                    f"({slowdown:+.1%}){marker}"
                )
        unmatched += sum(1 for key in cand_rows if key not in base_rows)

    if compared == 0:
        sys.exit(
            "bench_compare: no comparable rows — the files share no row "
            "arrays with matching identities"
        )
    if unmatched:
        print(f"note: {unmatched} row(s) present in only one file (ignored)")

    if regressions:
        print(
            f"\nFAIL: {len(regressions)} timing(s) regressed more than "
            f"{args.threshold:.0%}:"
        )
        for label, field, base_ms, cand_ms, slowdown in regressions:
            print(
                f"  {label} {field}: {base_ms:.3f} -> {cand_ms:.3f} ms "
                f"({slowdown:+.1%})"
            )
        return 1
    print(f"\nOK: {compared} timing(s) compared, none regressed more than "
          f"{args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
