#!/usr/bin/env python3
"""Steadiness check: run each workload once per seed and report, for every
end-to-end metric, the median and the spread (distance between the first
and third quartile as a share of the median) against the bound in
BENCHMARK.json.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--save FILE] [--against FILE]

Run from the root of a source checkout.  Prints one row per workload and
metric; exits nonzero when any spread exceeds its bound.  --save writes the
medians and spreads to FILE; --against compares this sitting's medians with
those saved by an earlier one and also fails when a median got worse by more
than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--against")
    a = ap.parse_args()
    earlier = {}
    if a.against:
        with open(a.against) as f:
            earlier = json.load(f)

    command = spec["command"]
    worst = 0
    sitting = {}
    for workload in a.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(a.first_seed, a.first_seed + a.seeds):
            r = subprocess.run(command + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            result = json.loads(r.stdout.strip().splitlines()[-1])
            if r.returncode or not result["correct"]:
                print("%s seed %d: exit %d, correct %s" % (
                    workload, seed, r.returncode, result["correct"]))
                return 1
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (k, v[-1]) for k, v in values.items())),
                flush=True)
        sitting[workload] = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2
            worst = max(worst, spread / m["bound"])
            sitting[workload][m["name"]] = {"median": q2, "spread": spread,
                                            "values": v}
            line = ("  %-14s %-16s median %12.6g %-7s spread %6.2f%% "
                    "(bound %4.1f%%, %.2f of it)" % (
                        workload, m["name"], q2, m["unit"], 100 * spread,
                        100 * m["bound"], spread / m["bound"]))
            before = earlier.get(workload, {}).get(m["name"])
            if before:
                change = (q2 - before["median"]) / before["median"]
                worse = change if m["better"] == "lower" else -change
                worst = max(worst, worse / m["bound"])
                line += "; earlier median %.6g, %+.2f%% (%.2f of bound)" % (
                    before["median"], 100 * change, max(worse, 0) / m["bound"])
            print(line, flush=True)
    if a.save:
        with open(a.save, "w") as f:
            json.dump(sitting, f, indent=1)
    print("worst spread or change / bound: %.2f" % worst)
    return 0 if worst <= 1 else 1


if __name__ == "__main__":
    sys.exit(main())
