"""Steadiness check: run each workload repeatedly on the same build and
print, for each end-to-end metric, the median, the spread between the
first and third quartile as a share of the median, and the bound
BENCHMARK.json gives it.

    python3 servebench/steady.py [--runs 10] [--seed0 1] [--workload NAME ...]

Run from the root of a lambekd checkout.  Each run uses its own seed
(seed0, seed0 + 1, ...).  A metric is steady when its spread stays under
a third of its bound.  Exits 1 if a run fails, answers wrongly, a metric
is not steady, or the share of failed operations differs between runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2, q2


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for wl in names:
        values = {m: [] for m in bounds}
        shares = set()
        for i in range(args.runs):
            seed = args.seed0 + i
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=300)
            lines = p.stdout.decode().strip().splitlines()
            if p.returncode != 0 or not lines:
                print("%s seed %d: exit %d" % (wl, seed, p.returncode))
                ok = False
                continue
            res = json.loads(lines[-1])
            if not res["correct"]:
                print("%s seed %d: wrong answers" % (wl, seed))
                ok = False
            shares.add(res["failed"] / res["attempted"])
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
        print("%s: %d runs, failed share %s" % (wl, args.runs, sorted(shares)))
        for m, bound in bounds.items():
            if len(values[m]) < 2:
                continue
            s, med = spread(values[m])
            held = s < bound / 3
            ok = ok and held
            print("  %-20s median %-12.6g spread %6.2f%%  bound %5.1f%%  %-10s  range %.6g .. %.6g"
                  % (m, med, 100 * s, 100 * bound, "ok" if held else "NOT STEADY",
                     min(values[m]), max(values[m])))
        if len(shares) > 1:
            ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
