#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py [--seconds 1] [--workloads a,b]

Run from the root of a checkout. Runs each workload briefly twice
through perfbench/run.py: once as is, which must pass its checks with
no failed operation, and once with --wrong-expectation, which plants
one wrong expected value in the workload's final check and so must
report correct=false. Exits non-zero if either outcome differs.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("gw_durable_mixed", "gw_volatile_read",
             "sim_cached_replicated", "sim_sharded_lossy")


def run(workload, seconds, wrong):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", str(seconds), "--trace", "0"]
    if wrong:
        cmd.append("--wrong-expectation")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        clean = run(workload, args.seconds, False)
        planted = run(workload, args.seconds, True)
        clean_ok = bool(clean) and clean["correct"] and clean["failed"] == 0
        caught = bool(planted) and not planted["correct"]
        print(f"{workload:24s} clean run passes: {clean_ok}   "
              f"planted wrong expectation caught: {caught}")
        ok = ok and clean_ok and caught
    print("selftest", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
