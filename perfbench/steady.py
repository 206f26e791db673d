#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Run from the repository root:

    python3 perfbench/steady.py [--rounds 10] [--sets 1] [--workloads a,b]

Runs every workload --rounds times, interleaved (round 1 of each workload,
then round 2, ...), round r with --seed r and BENCHMARK.json's run_seconds.
--workloads defaults to BENCHMARK.json's workloads. For every end-to-end
metric it prints the median, the quartiles (statistics.quantiles, n=4), the
spread -- the interquartile distance as a share of the median -- and the
metric's bound from BENCHMARK.json. A metric whose spread exceeds its bound
is flagged OVER; one above a third of its bound is flagged "wide". With
--sets 2 the whole schedule runs twice and each metric's second median is
compared with the first; a drift in either direction beyond the bound is
flagged DRIFT, and a second-set spread beyond it OVER2. The exit code is 1
if anything was flagged OVER, OVER2 or DRIFT.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("steady.py: %s seed %d failed (exit %d)" % (workload, seed, out.returncode))
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise SystemExit("steady.py: %s seed %d reported incorrect verdicts" % (workload, seed))
    return {name: m["value"] for name, m in res["metrics"].items()}


def collect(workloads, rounds, seconds):
    values = {w: {} for w in workloads}
    for r in range(rounds):
        for w in workloads:
            for name, v in run_once(w, r + 1, seconds).items():
                values[w].setdefault(name, []).append(v)
        print("round %d/%d done" % (r + 1, rounds), file=sys.stderr)
    return values


def spread(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    sets = [collect(workloads, args.rounds, spec["run_seconds"]) for _ in range(args.sets)]
    flagged = False
    print("%-16s %-19s %12s %12s %12s %7s %6s  %s" % ("workload", "metric", "q1", "median", "q3", "spread", "bound", "flag"))
    for w in workloads:
        for name, m in metrics.items():
            q1, med, q3, sp = spread(sets[0][w][name])
            flag = ""
            if sp > m["bound"]:
                flag, flagged = "OVER", True
            elif sp > m["bound"] / 3:
                flag = "wide"
            if len(sets) == 2 and med:
                _, med2, _, sp2 = spread(sets[1][w][name])
                drift = (med2 - med) / med
                flag += " spread2=%.3f drift=%+.3f" % (sp2, drift)
                if sp2 > m["bound"]:
                    flag, flagged = flag + " OVER2", True
                if abs(drift) > m["bound"]:
                    flag, flagged = flag + " DRIFT", True
            print("%-16s %-19s %12.6g %12.6g %12.6g %7.3f %6.2f  %s" % (w, name, q1, med, q3, sp, m["bound"], flag))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
