#!/usr/bin/env python3
"""Build the lamsdlc library and benchmark from source, then run one workload.

    python3 perfbench/run.py --workload link_8k|constellation|live_udp \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout.  The first call configures and
builds into .bench_build/perfbench (Release); later calls rebuild only what
changed.  The last line of standard output is the benchmark's JSON result;
the exit code is nonzero on a build failure or any correctness violation.

--self-test checks that the composed constellation run reproduces
sim::run_network, runs a reduced-scale smoke of every workload in both modes
checking that each metric named in BENCHMARK.json is printed with its unit,
and checks that the simulated workloads' protocol outcome of job 0 repeats
exactly across two processes with the same seed (each job depends only on
the seed and its index).
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "lamsdlc_perfbench")
WORKLOADS = ("link_8k", "constellation", "live_udp")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(2)


def build():
    for need in ("src/CMakeLists.txt", "include/lamsdlc"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no library sources at %s (run from a source checkout)" % need)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"] + gen
            if subprocess.run(cmd, stdout=sys.stderr, timeout=300).returncode:
                fail("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", BUILD, "--target", "lamsdlc_perfbench",
               "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr, timeout=850).returncode:
            fail("build failed")


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "include", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_binary(args, capture=False, timeout=175):
    cmd = [BINARY] + args
    return subprocess.run(cmd, cwd=ROOT, timeout=timeout, text=True,
                          stdout=subprocess.PIPE if capture else None)


def parse_result(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys are %s" % sorted(result))
    return result


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    for seed in (1, 2):
        if run_binary(["--check-run-network", "--seed", str(seed)]).returncode:
            problems.append("composed constellation run differs from "
                            "sim::run_network (seed %d)" % seed)

    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            r = run_binary(["--workload", workload, "--seed", "7",
                            "--seconds", "1", "--trace", str(trace)],
                           capture=True)
            where = "%s --trace %d" % (workload, trace)
            try:
                result = parse_result(r.stdout)
            except ValueError as e:
                problems.append("%s: unreadable result (%s)" % (where, e))
                continue
            if r.returncode or not result["correct"] or result["failed"]:
                problems.append("%s: exit %d, correct %s, failed %s" % (
                    where, r.returncode, result["correct"], result["failed"]))
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(k for k in set(want) & set(got)
                               if want[k] != got[k])
                problems.append("%s: missing %s, unexpected %s, wrong unit %s"
                                % (where, missing, extra, units))
            bad = [k for k, v in result["metrics"].items()
                   if not isinstance(v.get("value"), (int, float))]
            if bad:
                problems.append("%s: non-numeric %s" % (where, bad))

    for workload in ("link_8k", "constellation"):
        digests = set()
        for _ in range(2):
            r = run_binary(["--workload", workload, "--seed", "11",
                            "--seconds", "1", "--trace", "0"], capture=True)
            digests.update(line for line in r.stdout.splitlines()
                           if line.startswith("outcome digest"))
        if len(digests) != 1:
            problems.append("%s: job 0's protocol outcome differs across "
                            "runs of one seed: %s" % (workload, sorted(digests)))

    for p in problems:
        print("SELF-TEST FAILURE: " + p)
    print("self-test: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    build()
    if a.self_test:
        return self_test()
    print("host: commit=%s source_sha256=%s" % (commit(), source_digest()),
          flush=True)
    r = run_binary(["--workload", a.workload, "--seed", str(a.seed),
                    "--seconds", str(a.seconds), "--trace", str(a.trace)])
    return r.returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.TimeoutExpired as e:
        fail("timed out: %s" % " ".join(e.cmd))
