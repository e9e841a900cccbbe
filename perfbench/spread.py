#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and reports, for
every end-to-end metric, the median and quartiles across the runs and
their spread (quartile distance over the median) beside the metric's
bound from BENCHMARK.json.

    python3 perfbench/spread.py [--runs 10]

Seeds 1..N run on every workload BENCHMARK.json lists.

Run it from the root of a checkout, like run.py.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-2000:])
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  flush=True)
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':24} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'spread/bound':>12}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = stats.quartiles(values)
            s = stats.spread(values)
            share = s / bound
            if name != "setup_s":
                worst = max(worst, share)
            print(f"  {name:24} {q1:12.6g} {q2:12.6g} {q3:12.6g} "
                  f"{s:8.4f} {bound:6.3f} {share:12.3f}")
        print(flush=True)
    print(f"largest spread/bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
