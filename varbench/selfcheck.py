#!/usr/bin/env python3
"""Determinism self-check of the varstream benchmark.

    python3 varbench/selfcheck.py [--seconds 5] [--seed 7]

Runs every workload twice with the same seed and requires identical
tracker_msgs_per_kupdate and wire_bytes_per_update (exact counts over a
fixed prefix of a seeded stream), then once with a fresh seed, which must
pass the correctness gate. Exits 0 only if every check holds.
"""

import argparse
import json
import os
import subprocess
import sys
import time

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("bulk-walk", "sensor-trickle", "tree-walk")
EXACT = ("tracker_msgs_per_kupdate", "wire_bytes_per_update")


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    fresh = int(time.time()) % 1000000 + 1000
    ok = True
    for workload in WORKLOADS:
        first = run(workload, args.seed, args.seconds)
        second = run(workload, args.seed, args.seconds)
        other = run(workload, fresh, args.seconds)
        if first is None or second is None or other is None:
            print("%s: a run failed" % workload)
            ok = False
            continue
        for name in EXACT:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            same = a == b
            ok &= same
            print("%s: %s %r vs %r (seed %d): %s"
                  % (workload, name, a, b, args.seed,
                     "identical" if same else "DIFFERENT"))
        passed = other["correct"] and other["failed"] == 0
        ok &= passed
        print("%s: fresh seed %d correctness gate: %s"
              % (workload, fresh, "passed" if passed else "FAILED"))
    print("selfcheck: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
