#!/usr/bin/env python3
"""Steadiness report: runs one workload k times and checks the spread.

    python3 perfbench/steady.py --workload java-t2-ckpt --runs 10 --seed0 100

Each run uses the next seed and lasts BENCHMARK.json's run_seconds.  For
every end-to-end metric of BENCHMARK.json it prints the median, the
quartiles, IQR/median, and the gap between the medians of odd and even runs
as a share of the median, and it flags a metric whose IQR/median or gap
passes the metric's bound.  A run that is not correct is flagged too.  Exits
1 when anything is flagged.  Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()
    if args.runs < 4:
        sys.exit("steady: need at least 4 runs for quartiles")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]

    runs = []
    for i in range(args.runs):
        seed = args.seed0 + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stderr)
            sys.exit("steady: run with seed %d exited with %d" % (seed, r.returncode))
        res = json.loads(r.stdout.strip().splitlines()[-1])
        runs.append(res)
        print("seed %d: correct=%s attempted=%d failed=%d" %
              (seed, res["correct"], res["attempted"], res["failed"]), flush=True)

    flagged = [("correct", "run not correct")] if not all(
        r["correct"] for r in runs) else []
    print("%-14s %12s %12s %12s %9s %9s %6s" %
          ("metric", "median", "q1", "q3", "iqr/med", "odd-even", "bound"))
    for m in metrics:
        name, bound = m["name"], m["bound"]
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        gap = (statistics.median(vals[0::2]) - statistics.median(vals[1::2])) / med
        flags = []
        if spread > bound:
            flags.append("spread")
        if abs(gap) > bound:
            flags.append("odd-even")
        flagged += [(name, f) for f in flags]
        print("%-14s %12.6g %12.6g %12.6g %9.4f %+9.4f %6.3f %s" %
              (name, med, q1, q3, spread, gap, bound,
               "FLAG " + ",".join(flags) if flags else ""))
    for name, why in flagged:
        print("flagged: %s (%s)" % (name, why))
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
