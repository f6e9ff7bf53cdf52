#!/usr/bin/env bash
# Refresh the checked-in performance records at the repo root:
#
#   BENCH_kernel.json  — event-kernel workload rates (bench_kernel --json)
#                        next to the frozen pre-overhaul baseline, which was
#                        measured by compiling bench/kernel_workloads.hpp
#                        against the old std::priority_queue kernel with the
#                        same -O3 flags on the same host.
#   BENCH_framepath.json — end-to-end frame-path rates (bench_framepath
#                        --json): CRC throughput, codec round-trips, and
#                        frames/sec through the full channel/network stack,
#                        next to the frozen pre-optimization baseline
#                        (bytewise CRC, per-frame kernel events, map-backed
#                        forwarding, AoS in-flight table) measured by
#                        compiling bench/framepath_workloads.hpp against the
#                        pre-PR sources with the same -O3 flags.
#   BENCH_sweep.json   — wall-clock of the 250-seed chaos soak, serial vs
#                        `lamsdlc_cli chaos --jobs $(nproc)`, plus a check
#                        that both produce identical output.
#   BENCH_network.json — constellation-scale network runs (bench_network
#                        --json): million-packet serial throughput over the
#                        112-sat Walker, the same workload at several PDES
#                        partition counts (wall ratio + report identity),
#                        and a 3000 s contact-churn run with LAMS failover.
#                        The partitions=1 run IS the frozen serial baseline
#                        (identical code path, no threads); the recorded
#                        host core count frames the PDES ratios honestly —
#                        on one core they price coordination overhead, not
#                        speedup.
#   BENCH_obs.json     — live-telemetry cost (bench_obs --json): the
#                        always-on flight recorder and the full daemon
#                        telemetry chain A/B'd on the byte-accurate frame
#                        path, plus the status endpoint under scrape load.
#
# Run after any kernel or frame-path change, on an otherwise idle machine.
#
# Usage: scripts/bench_baseline.sh [build-dir]     (default build/)

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
BENCH="$BUILD_DIR/bench/bench_kernel"
FRAMEPATH="$BUILD_DIR/bench/bench_framepath"
CLI="$BUILD_DIR/tools/lamsdlc_cli"
OPS=2000000
SOAK_SEEDS=250

[ -x "$BENCH" ] && [ -x "$FRAMEPATH" ] && [ -x "$CLI" ] || {
  echo "build first: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
}

echo "== kernel workloads ($OPS ops, best of 3) =="
CURRENT_JSON="$("$BENCH" --json "$OPS")"
echo "$CURRENT_JSON"

# The baseline block is frozen: these numbers reproduce only against the
# pre-overhaul kernel sources and are kept for honest before/after context.
python3 - "$CURRENT_JSON" > BENCH_kernel.json <<'EOF'
import json, sys

current = json.loads(sys.argv[1])
baseline = {
    "kernel": "std::priority_queue + per-event heap std::function + "
              "unordered_map registry (pre-overhaul)",
    "schedule_fire_ops_per_sec": 634923,
    "cancel_heavy_ops_per_sec": 1151920,
    "timer_rearm_ops_per_sec": 1002718,
}
keys = ["schedule_fire_ops_per_sec", "cancel_heavy_ops_per_sec",
        "timer_rearm_ops_per_sec"]
out = {
    "workload_ops": current["ops"],
    "flags": "g++ -O3 -DNDEBUG (CMake Release)",
    "workloads": "bench/kernel_workloads.hpp (identical code for both kernels)",
    "baseline": baseline,
    "current": {
        "kernel": "inline binary heap (24-byte entries) + slot-table "
                  "callbacks (core::InlineFunction, 48-byte SBO) + "
                  "generation-tagged ids with tombstone compaction",
        **{k: current[k] for k in keys},
    },
    "speedup": {k: round(current[k] / baseline[k], 2) for k in keys},
}
json.dump(out, sys.stdout, indent=2)
print()
EOF
echo "wrote BENCH_kernel.json"

echo "== frame-path workloads (best of 3) =="
FRAMEPATH_JSON="$("$FRAMEPATH" --json)"
echo "$FRAMEPATH_JSON"

# The baseline block is frozen: measured by compiling the identical
# bench/framepath_workloads.hpp against the pre-optimization frame path
# (bytewise CRC loops, one kernel event per in-flight frame, std::map packet
# headers / next-hop tables, unordered_map in-flight slots) with the same
# flags on the same host.
python3 - "$FRAMEPATH_JSON" > BENCH_framepath.json <<'EOF'
import json, sys

current = json.loads(sys.argv[1])
baseline = {
    "frame_path": "bytewise CRC + one kernel event per in-flight frame + "
                  "std::map forwarding tables + unordered_map in-flight "
                  "slots (pre-optimization)",
    "crc_backend": "bytewise (reference)",
    "crc16_64k_mb_per_sec": 346,
    "crc32_64k_mb_per_sec": 381,
    "codec_roundtrip_256B_frames_per_sec": 634760,
    "codec_roundtrip_8KB_frames_per_sec": 19550,
    "singlelink_fast_1KB_frames_per_sec": 1610719,
    "singlelink_fast_1KB_sim_gbps_per_wall_sec": 13.20,
    "singlelink_byte_256B_frames_per_sec": 380494,
    "singlelink_byte_8KB_frames_per_sec": 20239,
    "singlelink_byte_8KB_sim_gbps_per_wall_sec": 1.33,
    "multihop_4hop_1KB_hopframes_per_sec": 923193,
}
keys = [k for k in baseline if isinstance(baseline[k], (int, float))]
out = {
    "scale": current["scale"],
    "flags": "g++ -O3 -DNDEBUG (CMake Release)",
    "workloads": "bench/framepath_workloads.hpp (identical code for both "
                 "frame paths; public API only)",
    "baseline": baseline,
    "current": {
        "frame_path": f"{current['crc_backend']} CRC + batched "
                      "transit-queue delivery + flat arena forwarding "
                      "tables + SoA in-flight table",
        "crc_backend": current["crc_backend"],
        **{k: current[k] for k in keys},
    },
    "speedup": {k: round(current[k] / baseline[k], 2) for k in keys},
}
json.dump(out, sys.stdout, indent=2)
print()
EOF
echo "wrote BENCH_framepath.json"

echo "== chaos soak wall-clock ($SOAK_SEEDS seeds) =="
JOBS="$(nproc)"
t0=$(date +%s%N)
"$CLI" chaos --seed 1 --seeds "$SOAK_SEEDS" --jobs 1 > /tmp/bench_sweep_serial.txt
t1=$(date +%s%N)
"$CLI" chaos --seed 1 --seeds "$SOAK_SEEDS" --jobs "$JOBS" > /tmp/bench_sweep_par.txt
t2=$(date +%s%N)
SERIAL_MS=$(( (t1 - t0) / 1000000 ))
PAR_MS=$(( (t2 - t1) / 1000000 ))
diff /tmp/bench_sweep_serial.txt /tmp/bench_sweep_par.txt > /dev/null ||
  { echo "FATAL: parallel sweep output differs from serial" >&2; exit 1; }
echo "serial ${SERIAL_MS} ms, --jobs $JOBS ${PAR_MS} ms (outputs identical)"

python3 - "$SOAK_SEEDS" "$JOBS" "$SERIAL_MS" "$PAR_MS" > BENCH_sweep.json <<'EOF'
import json, sys

seeds, jobs, serial_ms, par_ms = (int(a) for a in sys.argv[1:5])
json.dump({
    "workload": f"lamsdlc_cli chaos --seed 1 --seeds {seeds}",
    "cores": jobs,
    "serial_wall_ms": serial_ms,
    "parallel_wall_ms": par_ms,
    "speedup": round(serial_ms / par_ms, 2) if par_ms else None,
    "outputs_identical": True,
}, sys.stdout, indent=2)
print()
EOF
echo "wrote BENCH_sweep.json"

echo "== constellation network runs (bench_network, full scale) =="
NETWORK="$BUILD_DIR/bench/bench_network"
[ -x "$NETWORK" ] || { echo "missing $NETWORK" >&2; exit 1; }
NETWORK_JSON="$("$NETWORK" --json)"
echo "$NETWORK_JSON"

python3 - "$NETWORK_JSON" "$(nproc)" > BENCH_network.json <<'EOF'
import json, sys

current = json.loads(sys.argv[1])
json.dump({
    "workload": "bench_network --json (Walker 112/8, 224 ISLs; see "
                "bench/bench_network.cpp)",
    "flags": "g++ -O3 -DNDEBUG (CMake Release)",
    "host_cores": int(sys.argv[2]),
    "note": "partitions=1 is the frozen serial baseline (same code path, "
            "no threads); wall_vs_serial on a single-core host measures "
            "PDES coordination overhead, on a multi-core host it becomes "
            "speedup.  report_identical must always be true.",
    **current,
}, sys.stdout, indent=2)
print()
EOF
echo "wrote BENCH_network.json"

echo "== live telemetry cost (bench_obs, best of 5 interleaved) =="
OBS="$BUILD_DIR/bench/bench_obs"
[ -x "$OBS" ] || { echo "missing $OBS" >&2; exit 1; }
OBS_JSON="$("$OBS" --json)"
echo "$OBS_JSON"

python3 - "$OBS_JSON" > BENCH_obs.json <<'EOF'
import json, sys

current = json.loads(sys.argv[1])
json.dump({
    "workload": "bench_obs --json (byte-accurate single-link A/B/C + "
                "status endpoint under scrape load; see bench/bench_obs.cpp)",
    "flags": "g++ -O3 -DNDEBUG (CMake Release)",
    "note": "headline is overhead_recorder_byte_8KB_pct — the always-on "
            "flight-recorder ring on the byte-level frame path (acceptance "
            "bar: <= 3%).  The 'full' rows add the metrics collector "
            "(string-keyed registry updates per event), which is what "
            "lamsdlcd attaches per session by default; its cost is "
            "recorded honestly, not hidden.  256B rows stress per-event "
            "cost (tiny frames, extreme event rate per byte).",
    **current,
}, sys.stdout, indent=2)
print()
EOF
echo "wrote BENCH_obs.json"
