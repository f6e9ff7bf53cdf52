#!/usr/bin/env bash
# Append one row to BENCH_ledger.jsonl, the repo's record of measured
# performance (one JSON object per line; earlier lines are never rewritten).
# Besides its commit and host_cores, the row names the host's CRC-16 kernel
# (crc_backend, from perfbench's `host:` line: the kernel is chosen from
# CPUID, so the core count alone does not identify a host) and its CPU model
# (from /proc/cpuinfo).  Compare only rows whose three agree.  The row holds:
#
#   perfbench    — the median of every end-to-end metric of each workload,
#                  from `perfbench/steady.py --save` (10 seeds x 30 s each);
#   bench_kernel — the three event-kernel workload rates (best of 3);
#   chaos_sweep  — wall clock of the 250-seed chaos soak run serially and
#                  with --jobs $(nproc), recorded only if both print the
#                  same output.
#
# Run on an otherwise idle machine; steady.py alone takes ~16 minutes.
#
# Usage: scripts/bench_baseline.sh [build-dir]     (default build/)

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
KERNEL="$BUILD_DIR/bench/bench_kernel"
CLI="$BUILD_DIR/tools/lamsdlc_cli"
SOAK_SEEDS=250
JOBS="$(nproc)"

[ -x "$KERNEL" ] && [ -x "$CLI" ] || {
  echo "build first: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
}
COMMIT="$(git describe --always --dirty 2>/dev/null || echo unknown)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "== perfbench medians =="
python3 perfbench/steady.py --save "$TMP/steady.json"

HOST_LINE="$(python3 perfbench/run.py --workload link_8k --seed 1 \
  --seconds 1 --trace 0 | grep '^host: nproc=')"

echo "== kernel workloads =="
"$KERNEL" | tee "$TMP/kernel.json"

echo "== chaos soak wall clock ($SOAK_SEEDS seeds) =="
t0=$(date +%s%N)
"$CLI" chaos --seed 1 --seeds "$SOAK_SEEDS" --jobs 1 > "$TMP/serial.txt"
t1=$(date +%s%N)
"$CLI" chaos --seed 1 --seeds "$SOAK_SEEDS" --jobs "$JOBS" > "$TMP/parallel.txt"
t2=$(date +%s%N)
cmp -s "$TMP/serial.txt" "$TMP/parallel.txt" ||
  { echo "FATAL: parallel sweep output differs from serial" >&2; exit 1; }

python3 - "$TMP" "$COMMIT" "$JOBS" "$SOAK_SEEDS" "$HOST_LINE" \
  $(( (t1 - t0) / 1000000 )) $(( (t2 - t1) / 1000000 )) \
  >> BENCH_ledger.jsonl <<'EOF'
import datetime, json, re, sys

tmp, commit, jobs, seeds, host_line, serial_ms, par_ms = sys.argv[1:]
steady = json.load(open(tmp + "/steady.json"))
backend = re.search(r"crc_backend=(.*) build_type=", host_line)
cpu_model = "unknown"
with open("/proc/cpuinfo") as f:
    for line in f:
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
row = {
    "date": datetime.date.today().isoformat(),
    "commit": commit,
    "host_cores": int(jobs),
    "crc_backend": backend.group(1) if backend else "unknown",
    "cpu_model": cpu_model,
    "command": "scripts/bench_baseline.sh",
    "numbers": {
        "perfbench": {w: {m: float("%.6g" % v["median"])
                          for m, v in metrics.items()}
                      for w, metrics in steady.items()},
        "bench_kernel": json.load(open(tmp + "/kernel.json")),
        "chaos_sweep": {"seeds": int(seeds), "jobs": int(jobs),
                        "serial_wall_ms": int(serial_ms),
                        "parallel_wall_ms": int(par_ms)},
    },
}
print(json.dumps(row))
EOF
echo "appended a row to BENCH_ledger.jsonl"
