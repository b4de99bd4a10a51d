#!/usr/bin/env python3
"""Compare two bench snapshots and gate on regressions.

Inputs are either consolidated snapshots written by tools/bench_snapshot.py
(`BENCH_<PR>.json`, schema in docs/BENCHMARKS.md) or raw google-benchmark
JSON reports (`--benchmark_format=json` output). The two formats are
auto-detected and may be mixed: a snapshot embeds a google-benchmark
report under benches.micro_kernels, so `BENCH_5.json` vs a fresh
micro-kernel report compares the overlapping rows.

Every numeric metric present in BOTH files is flattened to a stable key
(e.g. `fold_policies/fold/nb_p14_b10_A/GrowLocal/team2/modulo_makespan`,
`micro_kernels/BM_BspSolve/2/real_time`) and reported with its relative
delta. Metrics have a direction: times/seconds/makespans regress when
they grow, speedups/throughputs regress when they shrink, and everything
else is informational (printed, never gated).

Usage:
    python3 tools/bench_diff.py BASELINE.json CANDIDATE.json
            [--threshold 0.10] [--filter REGEX] [--all]

    # CI overhead gate: tracing compiled in (idle) must stay within 2%
    # of the compiled-out build on the BSP solve row:
    python3 tools/bench_diff.py off.json on.json \
            --filter 'BM_BspSolveTraceIdle' --threshold 0.02

Exits 1 when any gated metric regresses past --threshold, 2 on usage or
parse errors, 0 otherwise. `--filter` restricts BOTH reporting and gating
to keys matching the regex; `--all` prints every compared metric instead
of only the regressions/improvements beyond the threshold.
"""

import argparse
import json
import re
import sys

# Key suffixes where a LARGER candidate value is a regression.
LOWER_IS_BETTER = (
    "_seconds", "_ms", "_time", "real_time", "cpu_time", "makespan",
    "migrated_threads", "dropped_events",
)
# Key suffixes where a SMALLER candidate value is a regression.
HIGHER_IS_BETTER = (
    "speedup", "_per_second", "items_per_second", "bytes_per_second",
)


def direction(key):
    """'down' (lower better), 'up' (higher better) or None (info only)."""
    leaf = key.rsplit("/", 1)[-1]
    if leaf.endswith(LOWER_IS_BETTER):
        return "down"
    if leaf.endswith(HIGHER_IS_BETTER):
        return "up"
    return None


def flatten_google_benchmark(report, prefix):
    """google-benchmark JSON -> {key: value} for the timing fields.

    Aggregate rows (mean/median/stddev from --benchmark_repetitions) are
    skipped in favor of the plain iteration rows, matching how the
    snapshots are generated (no repetitions)."""
    out = {}
    for row in report.get("benchmarks", []):
        if row.get("run_type") == "aggregate":
            continue
        name = row.get("name", "")
        for field in ("real_time", "cpu_time", "items_per_second",
                      "bytes_per_second"):
            if field in row:
                out[f"{prefix}{name}/{field}"] = float(row[field])
    return out


def flatten_rows(rows, prefix, id_fields):
    """List-of-dicts bench payloads -> {key: value}. The row identity is
    the concatenation of its id_fields; every other numeric field is a
    metric."""
    out = {}
    for row in rows:
        ident = "/".join(
            f"{f[0]}{row[f[1]]}" if f[0] else str(row[f[1]])
            for f in id_fields if f[1] in row)
        for field, value in row.items():
            if field in {f[1] for f in id_fields}:
                continue
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out[f"{prefix}{ident}/{field}"] = float(value)
    return out


def flatten_snapshot(snapshot):
    out = {}
    benches = snapshot.get("benches", {})
    fold = benches.get("fold_policies") or {}
    out.update(flatten_rows(fold.get("fold", []), "fold_policies/fold/",
                            [("", "matrix"), ("", "scheduler"),
                             ("team", "team")]))
    out.update(flatten_rows(fold.get("serving", []),
                            "fold_policies/serving/",
                            [("", "matrix"), ("", "scheduler")]))
    out.update(flatten_rows(fold.get("fold_aware", []),
                            "fold_policies/fold_aware/",
                            [("", "matrix")]))
    slab = benches.get("slab_locality") or {}
    out.update(flatten_rows(slab.get("results", []), "slab_locality/",
                            [("", "matrix"), ("", "executor"),
                             ("team", "team"), ("nrhs", "nrhs")]))
    tiled = benches.get("tiled_multirhs") or {}
    out.update(flatten_rows(tiled.get("results", []), "tiled_multirhs/",
                            [("", "matrix"), ("", "executor"),
                             ("", "storage"), ("team", "team"),
                             ("nrhs", "nrhs")]))
    overload = benches.get("overload_resilience") or {}
    out.update(flatten_rows(overload.get("results", []),
                            "overload_resilience/", [("", "matrix")]))
    micro = benches.get("micro_kernels")
    if micro:
        out.update(flatten_google_benchmark(micro, "micro_kernels/"))
    return out


def flatten(doc):
    """Auto-detect the file format and flatten to {key: value}."""
    if "benches" in doc:
        return flatten_snapshot(doc)
    if "benchmarks" in doc:
        return flatten_google_benchmark(doc, "micro_kernels/")
    raise ValueError("unrecognized bench JSON: expected a "
                     "tools/bench_snapshot.py snapshot ('benches') or a "
                     "google-benchmark report ('benchmarks')")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", help="baseline bench JSON")
    parser.add_argument("candidate", help="candidate bench JSON")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative regression gate on directional "
                             "metrics (default 0.10 = 10%%)")
    parser.add_argument("--filter", default=None, metavar="REGEX",
                        help="only compare metric keys matching this regex")
    parser.add_argument("--all", action="store_true",
                        help="print every compared metric, not only the "
                             "ones beyond the threshold")
    args = parser.parse_args()

    try:
        with open(args.baseline) as f:
            base = flatten(json.load(f))
        with open(args.candidate) as f:
            cand = flatten(json.load(f))
    except (OSError, ValueError) as err:
        print(f"bench_diff: {err}", file=sys.stderr)
        return 2

    keys = sorted(base.keys() & cand.keys())
    if args.filter:
        pattern = re.compile(args.filter)
        keys = [k for k in keys if pattern.search(k)]
    if not keys:
        print("bench_diff: no overlapping metrics to compare "
              f"({len(base)} baseline, {len(cand)} candidate"
              f"{', filter=' + args.filter if args.filter else ''})",
              file=sys.stderr)
        return 2

    regressions = []
    printed = 0
    for key in keys:
        old, new = base[key], cand[key]
        delta = (new - old) / old if old != 0.0 else float("inf") \
            if new != 0.0 else 0.0
        dirn = direction(key)
        regressed = dirn == "down" and delta > args.threshold or \
            dirn == "up" and -delta > args.threshold
        improved = dirn == "down" and -delta > args.threshold or \
            dirn == "up" and delta > args.threshold
        if regressed:
            regressions.append(key)
        if args.all or regressed or improved:
            tag = ("REGRESSED" if regressed else
                   "improved" if improved else
                   "ok" if dirn else "info")
            print(f"{tag:>9}  {delta:+8.1%}  {key}  "
                  f"({old:.6g} -> {new:.6g})")
            printed += 1

    gated = sum(1 for k in keys if direction(k))
    print(f"\ncompared {len(keys)} metrics ({gated} gated at "
          f"{args.threshold:.0%}); {len(regressions)} regression(s)"
          + ("" if printed else "; all within threshold"))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
