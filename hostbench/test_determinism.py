#!/usr/bin/env python3
"""The benchmark's own test.

For every workload: two short untraced runs with one seed must print
identical deterministic counts ("counts <workload>: ...") and identical
digests of simulated statistics ("digest <workload>: ..."), and runs on
two seeds must report no failed operation.  Exits 1 on any mismatch.

    python3 hostbench/test_determinism.py [--seconds S]
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("pump", "stack", "traffic", "check")


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit("FAIL %s seed %d: exit %d\n%s" % (
            workload, seed, out.returncode, out.stderr[-2000:]))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    counts = [l for l in lines if l.startswith("counts ")]
    digest = [l.split(" (")[0] for l in lines if l.startswith("digest ")]
    return result, counts, digest


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()
    bad = 0
    for w in WORKLOADS:
        r1, c1, d1 = run(w, 1, args.seconds)
        r2, c2, d2 = run(w, 1, args.seconds)
        r3, _, _ = run(w, 2, args.seconds)
        checks = {
            "counts repeat": c1 == c2 and len(c1) == 1,
            "digest repeats": d1 == d2 and len(d1) == 1,
            "seed 1 no failures": r1["failed"] == 0 and r1["correct"],
            "seed 2 no failures": r3["failed"] == 0 and r3["correct"],
        }
        for name, ok in checks.items():
            print("%-4s %-8s %s" % ("ok" if ok else "FAIL", w, name))
            bad += not ok
        if not checks["counts repeat"]:
            print("  run 1: %s\n  run 2: %s" % (c1, c2))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
