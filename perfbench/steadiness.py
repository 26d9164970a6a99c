#!/usr/bin/env python3
"""Steadiness report: run every workload in two sets of repeated runs on
distinct seeds and print, per end-to-end metric, each set's median,
quartiles and spread (interquartile distance over the median) against the
metric's bound, and the drift of the second set's median from the first's.

    python3 perfbench/steadiness.py [--runs 10]

Run from the repository root. Set 1 uses seeds 1..runs, set 2 seeds
101..100+runs; within a set the workloads take turns run by run, so a
slow spell of the host falls on all of them. A spread at or below a third
of its bound is "steady", above the bound "NOISY"; a drift is "NOISY"
when the second median is worse than the first by more than the bound.
The last section names the pairs that were too noisy in an earlier
attempt at this benchmark (fleet_mixed setup_s and latency, serve_open
latency). Exits non-zero when a run fails or any spread or drift exceeds
its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The fixed reference kernel the timings are normalised by: its spread is
# the machine's own drift over the runs.
MACHINE = "machine.ref_ms"
EARLIER_NOISY = [("fleet_mixed", "setup_s"), ("fleet_mixed", "latency_p50_ms"),
                 ("serve_open", "latency_p50_ms")]
SET_SEED_BASE = [1, 101]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit("%s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    for line in lines:
        if line.split()[:2] == ["info", MACHINE]:
            metrics[MACHINE] = float(line.split("=")[1].split()[0])
    return metrics


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    runs = {}  # (set, workload) -> list of metric dicts
    for s, base in enumerate(SET_SEED_BASE):
        for i in range(args.runs):
            for workload in workloads:
                seed = base + i
                result = run_once(workload, seed, bench["run_seconds"])
                runs.setdefault((s, workload), []).append(result)
                print("set %d %-12s seed %-4d %s" % (s + 1, workload, seed, " ".join(
                    "%s=%.6g" % kv for kv in result.items())), flush=True)

    bad = False
    print()
    print("%-12s %-16s %5s %12s %12s %12s %8s %6s  verdict" %
          ("workload", "metric", "set", "median", "q1", "q3", "spread", "bound"))
    spreads = {}
    for workload in workloads:
        for name in list(metrics) + [MACHINE]:
            medians = []
            for s in range(len(SET_SEED_BASE)):
                q1, med, q3, sp = quartiles([r[name] for r in runs[(s, workload)]])
                medians.append(med)
                spreads[(workload, name, s)] = sp
                if name == MACHINE:
                    verdict, bound = "machine drift", "-"
                else:
                    limit = metrics[name]["bound"]
                    bound = "%.0f%%" % (100 * limit)
                    verdict = ("steady" if sp <= limit / 3 else
                               "within bound" if sp <= limit else "NOISY")
                    bad = bad or verdict == "NOISY"
                print("%-12s %-16s %5d %12.6g %12.6g %12.6g %7.2f%% %6s  %s" %
                      (workload, name, s + 1, med, q1, q3, 100 * sp, bound, verdict))
            first, second = medians[0], medians[-1]
            if name == MACHINE:
                print("%-12s %-16s drift %+.2f%%" % (workload, name, 100 * (second / first - 1)))
                continue
            limit = metrics[name]["bound"]
            worse = (second - first) / first if metrics[name]["better"] == "lower" \
                else (first - second) / first
            verdict = "agree" if worse <= limit else "NOISY"
            bad = bad or verdict == "NOISY"
            print("%-12s %-16s drift %+.2f%% worse (bound %.0f%%)  %s" %
                  (workload, name, 100 * worse, 100 * limit, verdict))
    print()
    print("earlier noisy pairs, spread now (set 1, set 2):")
    for workload, name in EARLIER_NOISY:
        if workload in workloads:
            print("  %-12s %-16s %6.2f%% %6.2f%% (bound %.0f%%)" % (
                workload, name, 100 * spreads[(workload, name, 0)],
                100 * spreads[(workload, name, 1)], 100 * metrics[name]["bound"]))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
