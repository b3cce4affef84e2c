#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, next to their bounds.

Run from the repository root::

    python3 perfbench/steadiness.py --workload grid-ctr --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/steadiness.py --compare A.json B.json

The first form runs ``perfbench/run.py`` once per seed (``--trace 0``,
``run_seconds`` from ``BENCHMARK.json``), prints each metric's median,
quartiles and spread — the interquartile distance as a share of the
median, from ``statistics.quantiles(values, n=4)`` — and writes the
values to ``perfbench/out/steadiness-<workload>-<label>.json``.  The
second form compares the medians of two such files against the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from common import OUT, ROOT, spec

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median if median else float("inf")


def run_seeds(workload, seeds, seconds):
    runs = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
        report = json.loads(lines[-1])
        if not report["correct"]:
            print("\n".join(line for line in lines if line.startswith("FAIL")))
            raise SystemExit(f"{workload} seed {seed}: incorrect outputs")
        runs.append({"seed": seed, **{k: v["value"] for k, v in report["metrics"].items()}})
        print(f"  seed {seed}: " + ", ".join(f"{k}={v:.4g}" for k, v in runs[-1].items() if k != "seed"),
              flush=True)
    return runs


def table(workload, runs, bounds):
    print(f"{workload} ({len(runs)} runs)")
    print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
    for name, bound in bounds.items():
        q1, median, q3, share = spread([r[name] for r in runs])
        mark = "" if share <= bound / 3 else ("  > bound/3" if share <= bound else "  > BOUND")
        print(f"  {name:<14}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}{share:>9.3f}{bound:>7.2f}{mark}")


def compare(first, second, bounds, better):
    """Median of each metric in two runs files, and the change."""
    runs = []
    for path in (first, second):
        with open(path) as handle:
            runs.append(json.load(handle))
    print(f"{runs[0]['workload']}: median of {second} vs {first}")
    for name, bound in bounds.items():
        ma, mb = (statistics.median(r[name] for r in data["runs"]) for data in runs)
        change = (mb - ma) / ma if ma else 0.0
        worse = change if better[name] == "lower" else -change
        flag = "  WORSE THAN BOUND" if worse > bound else ""
        print(f"  {name:<14}{ma:>12.5g}{mb:>12.5g}{change:>+9.3f}{bound:>7.2f}{flag}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--label", default="set")
    parser.add_argument("--compare", nargs=2, metavar="JSON")
    args = parser.parse_args()
    bench = spec()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    if args.compare:
        compare(*args.compare, bounds, better)
        return 0
    runs = run_seeds(args.workload, args.seeds, bench["run_seconds"])
    table(args.workload, runs, bounds)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"steadiness-{args.workload}-{args.label}.json")
    with open(path, "w") as handle:
        json.dump({"workload": args.workload, "runs": runs}, handle, indent=1)
    print(f"  values in {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
