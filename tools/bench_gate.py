#!/usr/bin/env python3
"""Bench-regression gate for the checked-in benchmark baselines.

Compares freshly generated BENCH_*.json files against their checked-in
baselines and fails (exit 1) on any regression beyond tolerance.  One
invocation gates any number of files:

  bench_gate.py BASELINE.json FRESH.json            # single pair
  bench_gate.py --pair BENCH_KV.json fresh_kv.json \\
                --pair BENCH_SIM.json fresh_sim.json

Every file declares its own schema (bench/row.ml):

  {"experiment": ..., "key": [field, ...],
   "metrics": {name: {"unit": ..., "better": "higher" | "lower" | null,
                      "exact": true | false}},
   "results": [row, ...]}

Rows are matched by their key fields.  Every metric whose "better" is
non-null is gated: at --tolerance-pct when it is exact (deterministic
virtual-time values, which move only when the code does) and at the far
looser --wall-tolerance-pct when it is not (wall clock varies with runner
hardware).  Metrics with a null "better" are informational.

Rules:
  - The bound is baseline * (1 - tolerance) for "higher" and baseline *
    (1 + tolerance) for "lower", for every baseline including 0: a zero
    baseline of a lower-is-better metric fails on any positive fresh
    value, and a zero baseline of a higher-is-better metric cannot fail.
  - A baseline row, or a gated metric of a baseline row, that is missing
    from the fresh file fails.
  - Both files must declare the same key and the same metrics (unit,
    better, exact); otherwise they do not measure the same thing, and the
    pair fails.

The 15% default tolerance exists so deliberate trade-offs (e.g. heavier
instrumentation) need only a baseline refresh (`dune exec
bench/main.exe -- kv e-scale sweep --json`, commit the BENCH_*.json)
rather than a tuning dance.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as fh:
        doc = json.load(fh)
    rows = {}
    for row in doc["results"]:
        key = tuple(row[f] for f in doc["key"])
        if key in rows:
            raise SystemExit(f"{path}: duplicate bench row for {key}")
        rows[key] = row
    return doc, rows


def row_namer(keys):
    """Name rows by the key fields that vary across the baseline's rows."""
    keys = list(keys)
    width = len(keys[0]) if keys else 0
    varying = [i for i in range(width) if len({k[i] for k in keys}) > 1]
    shown = varying or range(width)
    return lambda key: "/".join(str(key[i]) for i in shown if key[i] is not None)


def declaration_errors(base, fresh):
    errors = []
    if base["key"] != fresh["key"]:
        errors.append(f"key {base['key']} in baseline, {fresh['key']} in fresh")
    for name in sorted(set(base["metrics"]) | set(fresh["metrics"])):
        b, f = base["metrics"].get(name), fresh["metrics"].get(name)
        if b != f:
            errors.append(f"metric '{name}' declared {b} in baseline, {f} in fresh")
    return errors


def check_pair(baseline_path, fresh_path, tol, wall_tol, failures):
    base, brows = load(baseline_path)
    fresh, frows = load(fresh_path)
    errors = declaration_errors(base, fresh)
    if errors:
        failures.extend(f"{baseline_path} vs {fresh_path}: {e}" for e in errors)
        return 0
    gated = sorted((m, d) for m, d in base["metrics"].items() if d["better"])
    row_name = row_namer(brows)

    compared = 0
    for key, brow in sorted(brows.items(), key=lambda kv: repr(kv[0])):
        name = f"{baseline_path}:{row_name(key)}"
        frow = frows.get(key)
        if frow is None:
            failures.append(f"{name}: row missing from fresh run")
            continue
        for metric, decl in gated:
            if metric not in brow:
                continue
            bval, fval = brow[metric], frow.get(metric)
            if fval is None:
                failures.append(f"{name}: metric '{metric}' missing from fresh run")
                continue
            compared += 1
            t = tol if decl["exact"] else wall_tol
            higher = {"higher": True, "lower": False}[decl["better"]]
            if (fval < bval * (1.0 - t)) if higher else (fval > bval * (1.0 + t)):
                pct = (
                    f"{100.0 * abs(fval - bval) / bval:.1f}%" if bval else "infinitely"
                )
                failures.append(
                    f"{name}: {metric} {fval:g} {decl['unit']} is {pct} "
                    f"{'below' if higher else 'above'} baseline {bval:g}"
                )

    if compared == 0:
        failures.append(f"{baseline_path} vs {fresh_path}: no comparable metrics")
    return compared


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("fresh", nargs="?")
    ap.add_argument(
        "--pair",
        nargs=2,
        action="append",
        default=[],
        metavar=("BASELINE", "FRESH"),
        help="baseline/fresh file pair to gate; repeatable",
    )
    ap.add_argument("--tolerance-pct", type=float, default=15.0)
    ap.add_argument(
        "--wall-tolerance-pct",
        type=float,
        default=75.0,
        help="tolerance for metrics declared exact: false (wall clock), "
        "which vary with runner hardware",
    )
    args = ap.parse_args()

    pairs = list(args.pair)
    if args.baseline or args.fresh:
        if not (args.baseline and args.fresh):
            ap.error("positional usage needs both BASELINE and FRESH")
        pairs.append([args.baseline, args.fresh])
    if not pairs:
        ap.error("nothing to gate: give BASELINE FRESH or --pair")

    tol = args.tolerance_pct / 100.0
    wall_tol = args.wall_tolerance_pct / 100.0
    failures = []
    compared = 0
    for baseline_path, fresh_path in pairs:
        compared += check_pair(baseline_path, fresh_path, tol, wall_tol, failures)

    for f in failures:
        print(f"FAIL {f}")
    print(
        f"bench gate: {len(pairs)} file pair(s), {compared} metrics compared, "
        f"{len(failures)} failures (tolerance {args.tolerance_pct:.0f}%, "
        f"wall-clock {args.wall_tolerance_pct:.0f}%)"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
