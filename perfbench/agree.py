#!/usr/bin/env python3
"""Two-set agreement check for the benchmark.

    python3 perfbench/agree.py [--runs N] [--workloads a,b]

Run from the repository root. For each workload of BENCHMARK.json it
makes two sets of N untraced runs (default 10), alternating which set
runs first, every run with its own seed (set A seeds 1..N, set B
1001..1000+N). For every end-to-end metric
it prints each set's median and quartiles, the spread (distance between
the quartiles as a share of the median), and whether

  * each set's spread is within the metric's bound, and below a third
    of it, the margin the benchmark aims for;
  * the second set's median is no worse than the first's by more than
    the bound.

Every run must also report correct=true and failed=0. Exits 0 when
everything agrees, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIRST_SEED = 1
SET_B_SEED_OFFSET = 1000


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    t = time.time()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    took = time.time() - t
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    print(f"  {workload} seed={seed} took {took:.1f}s correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']}", flush=True)
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    ok = True
    for w in names:
        sets = ([], [])
        for i in range(args.runs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for s in order:
                seed = FIRST_SEED + i + SET_B_SEED_OFFSET * s
                sets[s].append(run_once(spec, w, seed))
        for s in sets:
            for r in s:
                if not r["correct"] or r["failed"] != 0:
                    ok = False
                    print(f"  FAIL {w}: a run was not correct")
        print(f"\n{w}: {args.runs} runs per set")
        print(f"  {'metric':<20} {'set':>3} {'q1':>14} {'median':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = []
            for s, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("inf")
                stats.append(med)
                verdict = "ok"
                if spread > bound:
                    verdict, ok = "SPREAD OVER BOUND", False
                elif spread > bound / 3:
                    verdict = "spread over bound/3"
                print(f"  {name:<20} {'AB'[s]:>3} {q1:>14.6g} {med:>14.6g} {q3:>14.6g} "
                      f"{spread:>8.4f} {bound:>6}  {verdict}")
            a, b = stats
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            agree = worse <= bound
            ok = ok and agree
            print(f"  {name:<20}  B vs A: {worse:+.4f} worse  -> {'agree' if agree else 'DISAGREE'}")
    print("\nall sets agree" if ok else "\nsets DISAGREE or runs failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
