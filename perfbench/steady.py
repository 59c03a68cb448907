#!/usr/bin/env python3
"""Steadiness check for the wall-clock benchmark.

    python3 perfbench/steady.py [--runs 10] [--seconds 10] [--sets 1]
                                [--workloads a,b] [--first-seed 1]

Run from the root of a checkout. Runs each workload --runs times, each
with its own seed (first-seed, first-seed+1, ...), through
perfbench/run.py --trace 0, and prints for every end-to-end metric the
median, the quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median, next to the metric's bound in BENCHMARK.json when
that file is present. With --sets 2 it repeats the whole set and also
prints how far the second median moved from the first, in the
metric's worse direction, and whether the failed share matched.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("gw_durable_mixed", "gw_volatile_read",
             "sim_cached_replicated", "sim_sharded_lossy")


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results):
    """metric -> (median, q1, q3, spread); plus the failed share."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = (med, q1, q3, (q3 - q1) / med if med else float("inf"))
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    return out, failed / attempted, all(r["correct"] for r in results)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bounds, better = {}, {}
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            for m in json.load(f)["end_to_end"]:
                bounds[m["name"]] = m["bound"]
                better[m["name"]] = m["better"]

    for workload in args.workloads.split(","):
        sets = []
        seed = args.first_seed
        for _ in range(args.sets):
            results = []
            for _ in range(args.runs):
                results.append(one_run(workload, seed, args.seconds))
                seed += 1
            sets.append(summarize(results))
        print(f"== {workload}: {args.runs} runs x {args.sets} set(s), "
              f"{args.seconds:g} s each")
        for i, (stats, share, correct) in enumerate(sets):
            print(f"  set {i + 1}: correct={correct} failed share={share:.6g}")
            for name, (med, q1, q3, spread) in stats.items():
                bound = bounds.get(name)
                flag = ""
                if bound is not None and name != "setup_s":
                    flag = "ok" if spread <= bound else "OVER BOUND"
                    if spread > bound / 3:
                        flag += " (above bound/3)"
                print(f"    {name:15s} median {med:14.6g}  q1 {q1:14.6g}  "
                      f"q3 {q3:14.6g}  spread {spread:7.2%}  "
                      f"bound {bound if bound is not None else '-'}  {flag}")
        if args.sets == 2:
            (s1, f1, _), (s2, f2, _) = sets
            print(f"  failed share equal: {f1 == f2}")
            for name in s1:
                m1, m2 = s1[name][0], s2[name][0]
                worse = (m2 - m1) / m1 if better.get(name) == "lower" \
                    else (m1 - m2) / m1
                bound = bounds.get(name)
                ok = "" if bound is None else (
                    "ok" if worse <= bound else "OVER BOUND")
                print(f"    {name:15s} set2 worse by {worse:7.2%}  {ok}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
