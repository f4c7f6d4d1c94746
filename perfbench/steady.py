#!/usr/bin/env python3
"""Steadiness check: repeats each workload over several seeds and prints,
for each end-to-end metric, the median, the quartiles and the spread
(Q3 - Q1, as a share of the median) against the metric's bound in
BENCHMARK.json.  A spread should stay under a third of its bound and
must stay under the bound.  Also checks that every run's outputs are
correct and that the failed share is the same in every run.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workloads a,b] [--trace]

Run from the root of a checkout.  Each run goes through perfbench/run.py
with BENCHMARK.json's run_seconds; raw results go to standard error.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    print(f"{workload} seed {seed}: {lines[-1]}", file=sys.stderr)
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", action="store_true",
                        help="one traced run per workload instead")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    runs = 1 if args.trace else args.runs
    ok = True

    for workload in workloads:
        results = [run_once(spec, workload, args.first_seed + i, args.trace)
                   for i in range(runs)]
        for r in results:
            if not r["correct"]:
                print(f"{workload}: an output check failed")
                ok = False
        shares = {(r["failed"], r["attempted"]) for r in results}
        fractions = {f / a for f, a in shares}
        print(f"\n{workload}: {runs} run(s), failed/attempted "
              f"{sorted(shares)}")
        if len(fractions) > 1:
            print(f"{workload}: the failed share differs between runs")
            ok = False
        if args.trace:
            for m in metrics:
                value = results[0]["metrics"][m["name"]]["value"]
                print(f"  {m['name']:38s} {value:.6g} {m['unit']}")
            continue
        print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            verdict = "ok"
            if spread > m["bound"]:
                verdict, ok = "OVER BOUND", False
            elif spread > m["bound"] / 3:
                verdict = "over 1/3 bound"
            print(f"  {m['name']:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {m['bound']:6.2f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
