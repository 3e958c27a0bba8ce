"""Steadiness mode: run one workload over many seeds and print, per metric,
the median, the quartiles and the spread (quartile distance over median).

    python3 perfbench/steady.py --workload sf-grid --runs 10 [--seconds 30]

Runs are sequential fresh processes of run.py, seeds 1 to --runs, so the spread
includes the seed's inputs, set-up and machine noise.  The bounds in
BENCHMARK.json are set from these spreads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    for line in proc.stderr.splitlines():
        if line.startswith("check failed"):
            print(f"  seed {seed}: {line}", file=sys.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results):
    rows = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        rows[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                      "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / abs(med) if med else float("nan")}
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=None,
                   help="run length; defaults to BENCHMARK.json's run_seconds")
    args = p.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]

    results = []
    for seed in range(1, args.runs + 1):
        r = one_run(args.workload, seed, seconds)
        print(f"  seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}", file=sys.stderr)
        results.append(r)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {len(results)} runs of {seconds} s, "
          f"all correct: {all(r['correct'] for r in results)}, "
          f"failed shares: {sorted(shares)}")
    print(f"{'metric':32s} {'unit':10s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s}")
    for name, row in summarize(results).items():
        print(f"{name:32s} {row['unit']:10s} {row['median']:14.6g} {row['q1']:14.6g} "
              f"{row['q3']:14.6g} {row['spread']:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
