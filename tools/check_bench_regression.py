#!/usr/bin/env python3
"""Compare a fresh bench run against a committed baseline.

Usage:
  check_bench_regression.py --baseline bench/baselines/BENCH_faults_tiny.json \
      --current BENCH_faults_smoke.json [--max-qps-drop-pct 40]

The baseline's `bench` field selects the rule set:

bench_faults:
  * fails if the zero-fault configuration (`rate_0/...`) has failed or
    degraded queries — with no faults armed the fault path must be
    invisible;
  * fails if any `rate_X/qps` dropped more than --max-qps-drop-pct
    relative to the baseline (degradation getting drastically more
    expensive is a regression too).

bench_chaos:
  * hard correctness gates on the current run: `errors` must be 0 (a
    replica failure may degrade a query, never error it),
    `identity_ok` must be 1 (routed clean-path geometry byte-identical
    to the single store), `deterministic_ok` must be 1 (the error-driven
    chaos counters replay exactly for the fixed seed);
  * `availability` must stay at or above --min-availability;
  * `degraded_fraction` must not exceed --max-degraded-fraction (the
    schedule's full-shard outage degrades a bounded slice of queries;
    failover and hedging must keep the rest clean);
  * fails if `qps` dropped more than --max-qps-drop-pct relative to the
    baseline.

fig6_uniform / fig8_viewdep:
  * the paper's metric, cold disk accesses, is deterministic, so every
    DM cell (`<fig>/x_<x>/DM-SB|DM-MB|DM-BF`) must equal the
    baseline exactly, and a DM cell present in only one of the two
    files fails too: a change that moves a count re-records the
    baseline. The PM and HDoV arms are not gated.

ablation_compression:
  * gates are absolute floors on the current run (the baseline file
    only pins the bench kind and records reference numbers): the
    group codec (`Compression/2/...`) must fit at least
    --min-group-density times more nodes per page than flat
    (`density_x`), cut cold disk accesses by at least
    --min-group-da-ratio on both query classes (`da_uniform_x`,
    `da_view_x`), and keep its warm decode time within
    --max-decode-overhead-pct of the flat codec's
    (`decode_overhead_pct`: one FetchNodes over every record of each
    store, the whole store resident in the buffer pool and the node
    cache off) — the density/IO/CPU contract of the compressed page
    format.

Outside the exact figure gates, improvements never fail, and fault
rates present in only one of the two files are reported but ignored —
the wall-clock gates are meant to catch "someone made the pipeline 2x
slower", not to pin exact numbers on noisy shared CI runners. Keep
their thresholds generous. Wall-clock performance with its spread is
perfbench's job (perfbench/README.md).
"""

import argparse
import json
import sys


FIGURE_KINDS = ("fig6_uniform", "fig8_viewdep")
BENCH_KINDS = ("bench_faults", "bench_chaos",
               "ablation_compression") + FIGURE_KINDS
DM_ARMS = ("DM-SB", "DM-MB", "DM-BF")


def load_doc(path, expect_bench=None):
    with open(path) as f:
        doc = json.load(f)
    bench = doc.get("bench")
    if bench not in BENCH_KINDS:
        sys.exit(f"{path}: unsupported bench kind ({bench!r})")
    if expect_bench is not None and bench != expect_bench:
        sys.exit(f"{path}: bench kind {bench!r}, expected {expect_bench!r}")
    return bench, doc["metrics"]


def higher_is_better_change(base_val, cur_val):
    """Returns (worse_pct, label) for a higher-is-better metric:
    worse_pct > 0 when the current value fell, and label reads
    "25.4% better" or "3.1% worse" by the sign of the change."""
    if base_val <= 0:
        return 0.0, "0.0% better"
    worse_pct = 100.0 * (base_val - cur_val) / base_val
    word = "worse" if worse_pct > 0 else "better"
    return worse_pct, f"{abs(worse_pct):.1f}% {word}"


def compare_series(base, cur, suffix, max_worse_pct, failures):
    """Compares every higher-is-better `<config>/<suffix>` metric;
    returns the count."""
    compared = 0
    for key, base_val in sorted(base.items()):
        if not key.endswith("/" + suffix):
            continue
        if key not in cur:
            print(f"note: {key} missing from current run, skipping")
            continue
        cur_val = cur[key]
        worse_pct, label = higher_is_better_change(base_val, cur_val)
        status = "ok"
        if worse_pct > max_worse_pct:
            status = "REGRESSION"
            failures.append(
                f"{key}: {base_val:.1f} -> {cur_val:.1f} "
                f"({label} > {max_worse_pct:.0f}% allowed)"
            )
        print(f"{key}: baseline {base_val:.1f} current {cur_val:.1f} "
              f"({label}) {status}")
        compared += 1
    return compared


def compare_dm_cells_exactly(base, cur, failures):
    """Gates every DM cell of a figure for equality; a cell present in
    only one of the two files fails. Returns the count."""
    def dm_cells(metrics):
        return {k for k in metrics if k.rsplit("/", 1)[-1] in DM_ARMS}

    base_cells, cur_cells = dm_cells(base), dm_cells(cur)
    for key in sorted(base_cells | cur_cells):
        base_val, cur_val = base.get(key), cur.get(key)
        status = "ok"
        if base_val is None or cur_val is None or base_val != cur_val:
            status = "CHANGED"
            failures.append(f"{key}: baseline {base_val!r} current "
                            f"{cur_val!r} (must be equal)")
        print(f"{key}: baseline {base_val!r} current {cur_val!r} {status}")
    if not base_cells:
        failures.append("baseline holds no DM cells")
    return len(base_cells | cur_cells)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current", required=True)
    ap.add_argument("--max-qps-drop-pct", type=float, default=30.0)
    ap.add_argument("--min-availability", type=float, default=0.999,
                    help="floor for bench_chaos availability (fraction of "
                    "queries answered, degraded included)")
    ap.add_argument("--max-degraded-fraction", type=float, default=0.25,
                    help="cap on bench_chaos degraded_fraction — the "
                    "schedule's bounded outage may degrade queries, but "
                    "failover must keep the bulk of the stream clean")
    ap.add_argument("--min-group-density", type=float, default=2.0,
                    help="floor for the group codec's density_x "
                    "(flat heap pages / group heap pages)")
    ap.add_argument("--min-group-da-ratio", type=float, default=1.5,
                    help="floor for the group codec's cold "
                    "disk-access ratios da_uniform_x / da_view_x")
    ap.add_argument("--max-decode-overhead-pct", type=float, default=10.0,
                    help="cap on the group codec's warm decode time "
                    "over the flat codec's, in percent")
    args = ap.parse_args()

    bench, base = load_doc(args.baseline)
    _, cur = load_doc(args.current, expect_bench=bench)

    failures = []
    if bench == "bench_faults":
        compared = compare_series(base, cur, "qps", args.max_qps_drop_pct,
                                  failures=failures)
        for key in ("rate_0/failed", "rate_0/degraded"):
            value = cur.get(key, 0)
            if value != 0:
                failures.append(
                    f"{key}: {int(value)} (zero-fault run must be clean)")
        if compared == 0:
            failures.append("no overlapping rate_X/qps metrics to compare")
    elif bench == "bench_chaos":
        compared = 0
        for key, expect in (("errors", 0), ("identity_ok", 1),
                            ("deterministic_ok", 1)):
            value = cur.get(key)
            status = "ok"
            if value != expect:
                status = "REGRESSION"
                failures.append(f"{key}: {value!r} (must be {expect})")
            print(f"{key}: {value!r} (must be {expect}) {status}")
            compared += 1
        availability = cur.get("availability", 0.0)
        status = "ok"
        if availability < args.min_availability:
            status = "REGRESSION"
            failures.append(f"availability: {availability:.4f} < "
                            f"{args.min_availability:.4f} floor")
        print(f"availability: {availability:.4f} "
              f"(floor {args.min_availability:.4f}) {status}")
        compared += 1
        degraded_fraction = cur.get("degraded_fraction", 0.0)
        status = "ok"
        if degraded_fraction > args.max_degraded_fraction:
            status = "REGRESSION"
            failures.append(f"degraded_fraction: {degraded_fraction:.3f} > "
                            f"{args.max_degraded_fraction:.3f} allowed")
        print(f"degraded_fraction: {degraded_fraction:.3f} "
              f"(limit {args.max_degraded_fraction:.3f}) {status}")
        compared += 1
        base_qps = base.get("qps")
        cur_qps = cur.get("qps")
        if base_qps and cur_qps is not None:
            drop_pct, label = higher_is_better_change(base_qps, cur_qps)
            status = "ok"
            if drop_pct > args.max_qps_drop_pct:
                status = "REGRESSION"
                failures.append(f"qps: {base_qps:.1f} -> {cur_qps:.1f} "
                                f"({label} > "
                                f"{args.max_qps_drop_pct:.0f}% allowed)")
            print(f"qps: baseline {base_qps:.1f} current {cur_qps:.1f} "
                  f"({label}) {status}")
            compared += 1
    elif bench in FIGURE_KINDS:
        compared = compare_dm_cells_exactly(base, cur, failures)
    elif bench == "ablation_compression":
        # Absolute floors on the current run; google-benchmark metric
        # names carry an "/iterations:N" segment, so match by
        # variant prefix + counter suffix.
        def variant_metric(variant, name):
            prefix = f"Compression/{variant}/"
            for key, value in sorted(cur.items()):
                if key.startswith(prefix) and key.endswith("/" + name):
                    return value
            return None

        compared = 0
        group_gates = [
            ("density_x", args.min_group_density, True),
            ("da_uniform_x", args.min_group_da_ratio, True),
            ("da_view_x", args.min_group_da_ratio, True),
            ("decode_overhead_pct", args.max_decode_overhead_pct, False),
        ]
        for name, bound, is_floor in group_gates:
            value = variant_metric(2, name)
            if value is None:
                failures.append(f"group codec metric {name} missing from "
                                "current run")
                continue
            bad = value < bound if is_floor else value > bound
            status = "REGRESSION" if bad else "ok"
            kind_word = "floor" if is_floor else "limit"
            if bad:
                failures.append(f"group {name}: {value:.2f} vs "
                                f"{kind_word} {bound:.2f}")
            print(f"group {name}: {value:.2f} ({kind_word} {bound:.2f}) "
                  f"{status}")
            compared += 1

    if failures:
        print("\nbench regression check FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nbench regression check passed ({compared} metrics compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
