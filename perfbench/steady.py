#!/usr/bin/env python3
"""Steadiness check for the benchmark's end-to-end metrics.

Runs the benchmark command from BENCHMARK.json with --trace 0 for every
workload, in two independent sets of ten runs on disjoint seeds (set 0:
seeds 101-110, set 1: seeds 111-120), each for run_seconds. For every
metric and workload it prints each set's median of the per-run values and
their spread — the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median — and how far
set 1's median moved from set 0's.

Run from the repository root:

    python3 perfbench/steady.py
"""

import json
import statistics
import subprocess
import sys
import time

FIRST_SEED = 101
RUNS = 10
SETS = 2


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    out = subprocess.run(args, check=True, capture_output=True, text=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    return res, time.time() - t0


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]

    ok = True
    for w in [w["name"] for w in bench["workloads"]]:
        sets = []
        for s in range(SETS):
            values = {m["name"]: [] for m in metrics}
            for r in range(RUNS):
                seed = FIRST_SEED + s * RUNS + r
                res, took = run_once(bench["command"], w, seed, bench["run_seconds"])
                if not res["correct"] or res["failed"]:
                    ok = False
                    print(f"{w} seed {seed}: correctness checks failed", file=sys.stderr)
                for m in metrics:
                    values[m["name"]].append(res["metrics"][m["name"]]["value"])
                print(f"{w} set {s} seed {seed}: {took:.1f}s", file=sys.stderr)
            sets.append({name: spread(xs) for name, xs in values.items()})
        for m in metrics:
            line = f"{w:18} {m['name']:34}"
            for s in sets:
                med, sp = s[m["name"]]
                line += f"  median {med:.6g} spread {sp:.3%}"
            first, second = sets[0][m["name"]][0], sets[1][m["name"]][0]
            shift = (second - first) / first if first else float("nan")
            line += f"  shift {shift:+.3%}  bound {m['bound']:.0%}"
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
