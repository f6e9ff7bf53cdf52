#!/usr/bin/env bash
# The full pre-merge gate, in the order a failure is cheapest to find:
#
#   1. tier-1: regular build + the whole ctest suite, then the benchmark
#      harness self-test (perfbench/run.py --self-test), which compiles
#      against the library's public API — gating.
#   2. sanitizers: ASan/UBSan build + full suite (scripts/check_sanitize.sh),
#      then a ThreadSanitizer build of test_rt, the suite that drives a live
#      event loop from a second thread, and of test_integration's PDES and
#      parallel-sweep suites (scripts/check_tsan.sh) — gating.
#   3. chaos smoke: 25 seeded fault schedules under the invariant checker,
#      with event capture enabled — every run must also produce an .ldlcap
#      file that `lamsdlc_cli inspect` decodes cleanly.
#   4. trace smoke: one sampled chaos capture pushed through
#      `lamsdlc_cli trace --perfetto` and scripts/check_perfetto.py — gating.
#   5. verify smoke: the property-fuzzing + differential-oracle harness
#      (docs/VERIFICATION.md) over LAMSDLC_VERIFY_SEEDS hostile seeds and
#      LAMSDLC_VERIFY_FUZZ codec mutants — gating; any invariant violation,
#      oracle divergence or fuzz property failure fails the build and
#      prints a shrunk `lamsdlc_cli verify --repro` command line.
#   6. corrupt-state smoke: LAMSDLC_CORRUPT_SEEDS seeded state-corruption
#      schedules (docs/VERIFICATION.md, self-stabilization oracle) run
#      against the *sanitized* CLI from step 2 — gating; endpoint-state
#      mutation plus recovery is exactly where a stray read/UB would hide.
#   7. PDES identity smoke: one constellation run serial vs 4-way
#      partitioned through the CLI — metrics JSON and capture bytes must be
#      identical (gating).
#
#   The live interop smoke (between 6 and 7) additionally gates on both
#   daemons' introspection endpoints: a mid-transfer `status` query must
#   parse as JSON with nonzero session counters, and every histogram in it
#   must read min <= p50 <= p90 <= p99 <= max.
#
# Usage: scripts/ci.sh [build-dir]       (default build/)

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

echo "== tier-1: build + tests =="
cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "== benchmark harness self-test (gating) =="
python3 perfbench/run.py --self-test

echo "== sanitized build + tests =="
scripts/check_sanitize.sh

echo "== ThreadSanitizer build + threaded suites =="
scripts/check_tsan.sh

echo "== chaos smoke (25 seeds, capture enabled) =="
CLI="$BUILD_DIR/tools/lamsdlc_cli"
CAPDIR="$(mktemp -d)"
trap 'rm -rf "$CAPDIR"' EXIT
for seed in $(seq 1 25); do
  cap="$CAPDIR/chaos-seed-$seed.ldlcap"
  "$CLI" capture --seed "$seed" --out "$cap" >/dev/null
  "$CLI" inspect "$cap" --summary >/dev/null
done
echo "25 chaos seeds OK, captures decode cleanly"

echo "== trace smoke (gating) =="
# Span-tree reconstruction + Perfetto export over one sampled chaos seed.
cap="$CAPDIR/trace-smoke.ldlcap"
"$CLI" capture --seed 7 --sample-ms 5 --out "$cap" >/dev/null
"$CLI" trace "$cap" --perfetto "$CAPDIR/trace-smoke.json" >/dev/null
python3 scripts/check_perfetto.py "$CAPDIR/trace-smoke.json"

echo "== verify smoke (${LAMSDLC_VERIFY_SEEDS:-40} seeds, ${LAMSDLC_VERIFY_FUZZ:-4000} fuzz iters) =="
"$CLI" verify --seeds "${LAMSDLC_VERIFY_SEEDS:-40}" \
              --fuzz "${LAMSDLC_VERIFY_FUZZ:-4000}" --jobs 0

echo "== corrupt-state smoke (${LAMSDLC_CORRUPT_SEEDS:-40} seeds, ASan/UBSan) =="
# Run the self-stabilization sweep on the instrumented binary from step 2:
# live endpoint-state mutation + RESYNC recovery is the code most likely to
# harbour a latent out-of-bounds read or UB, so sanitize exactly this path.
ASAN_OPTIONS="halt_on_error=1:strict_string_checks=1:detect_stack_use_after_return=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
"build-asan/tools/lamsdlc_cli" verify --corrupt-state \
    --seeds "${LAMSDLC_CORRUPT_SEEDS:-40}" --jobs 0

echo "== live loopback interop smoke (gating) =="
# Two daemons over real UDP loopback, impaired forward link, two concurrent
# client streams pushed through the bridge.  Gates on: byte-exact delivery
# of both streams, clean session teardown on both ends (daemon exit status),
# and a bounded wall-clock budget (timeout).  docs/RUNTIME.md describes the
# setup.
DAEMON="$BUILD_DIR/tools/lamsdlcd"
LIVEDIR="$CAPDIR/live"
mkdir -p "$LIVEDIR"
# --status on both daemons so their introspection ports can be queried
# live (the receiver's is the only CI path whose collectors see receiver
# events alone); --rate slows the modeled serialization enough that
# "mid-transfer" is an observable window rather than a race (the ARQ gate
# below is rate-blind).
timeout 60 "$DAEMON" --deliver-dir "$LIVEDIR" --exit-after-streams 2 \
  --status > "$LIVEDIR/recv.log" &
RECV_PID=$!
for _ in $(seq 100); do
  grep -q '^ready' "$LIVEDIR/recv.log" 2>/dev/null && break; sleep 0.1
done
RPORT="$(awk '/^udp /{print $2}' "$LIVEDIR/recv.log")"
RSTPORT="$(awk '/^status /{print $2}' "$LIVEDIR/recv.log")"
timeout 60 "$DAEMON" --peer "127.0.0.1:$RPORT" --bridge --session-base 41 \
  --impair --p-drop 0.05 --p-corrupt 0.02 --fault-seed 9 --rate 4e6 \
  --status --exit-after-streams 2 > "$LIVEDIR/send.log" &
SEND_PID=$!
for _ in $(seq 100); do
  grep -q '^ready' "$LIVEDIR/send.log" 2>/dev/null && break; sleep 0.1
done
BPORT="$(awk '/^bridge /{print $2}' "$LIVEDIR/send.log")"
STPORT="$(awk '/^status /{print $2}' "$LIVEDIR/send.log")"
# Gating status check: while the transfer runs, each daemon's snapshot must
# parse as JSON, order every histogram's quantiles, and show live protocol
# work (the named counter nonzero).  Exit 0 = pass, 1 = not yet (no answer,
# counter still zero), 2 = broken snapshot.
cat > "$CAPDIR/status_check.py" <<'PY'
import json, socket, sys
port, counter = int(sys.argv[1]), sys.argv[2]
try:
    with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
        s.sendall(b"status\n")
        buf = b""
        while True:
            d = s.recv(65536)
            if not d:
                break
            buf += d
except OSError:
    sys.exit(1)
try:
    doc = json.loads(buf)
    assert doc["daemon"]["pid"] > 0
    assert "sessions_out" in doc and "recorder" in doc
    for name, h in doc["registry"]["histograms"].items():
        q = [h["min"], h["p50"], h["p90"], h["p99"], h["max"]]
        assert q == sorted(q), f"{name}: quantiles out of order {q}"
except (ValueError, KeyError, TypeError, AssertionError) as err:
    print(f"status on port {port}: {err!r}", file=sys.stderr)
    sys.exit(2)
sys.exit(0 if doc["registry"]["counters"].get(counter, 0) > 0 else 1)
PY
status_ok() {  # port counter: 0 pass, 1 not yet; a broken snapshot fails CI
  local rc=0
  python3 "$CAPDIR/status_check.py" "$1" "$2" || rc=$?
  [ "$rc" -lt 2 ] || exit 1
  return "$rc"
}
head -c 262144 /dev/urandom > "$LIVEDIR/in1.bin"
head -c 393216 /dev/urandom > "$LIVEDIR/in2.bin"
"$CLI" connect --port "$BPORT" --in "$LIVEDIR/in1.bin" >/dev/null &
C1_PID=$!
"$CLI" connect --port "$BPORT" --in "$LIVEDIR/in2.bin" >/dev/null &
C2_PID=$!
SEND_OK=0
RECV_OK=0
for _ in $(seq 80); do
  [ "$SEND_OK" = 1 ] || { status_ok "$STPORT" lams.sender.iframe_tx && SEND_OK=1; }
  [ "$RECV_OK" = 1 ] ||
    { status_ok "$RSTPORT" lams.receiver.checkpoints_emitted && RECV_OK=1; }
  [ "$SEND_OK$RECV_OK" = 11 ] && break
  sleep 0.05
done
[ "$SEND_OK$RECV_OK" = 11 ]
echo "mid-transfer status snapshots OK (sender $STPORT, receiver $RSTPORT)"
wait "$C1_PID"; wait "$C2_PID"   # each exits 0 iff its stream got "OK <n>"
wait "$SEND_PID"; wait "$RECV_PID"  # exit 0 iff no stream failed either end
# Byte-exactness: which bridge connection got which session id is a race,
# so match the two delivered files against the two inputs as multisets.
in_sums="$(cat "$LIVEDIR"/in1.bin "$LIVEDIR"/in2.bin | wc -c):$(md5sum "$LIVEDIR"/in?.bin | awk '{print $1}' | sort | md5sum | awk '{print $1}')"
out_sums="$(cat "$LIVEDIR"/stream-*.bin | wc -c):$(md5sum "$LIVEDIR"/stream-*.bin | awk '{print $1}' | sort | md5sum | awk '{print $1}')"
[ "$(ls "$LIVEDIR"/stream-*.bin | wc -l)" = 2 ]
[ "$in_sums" = "$out_sums" ]
echo "two-daemon interop OK ($in_sums)"
# Self-peer run (both endpoints in-process, real kernel round trip) gives a
# capture holding the full span tree; `trace` gates on zero incomplete
# delivered spans.
timeout 60 "$DAEMON" --self-peer --bridge --deliver-dir "$LIVEDIR" \
  --session-base 71 --impair --p-drop 0.05 --fault-seed 3 \
  --capture "$LIVEDIR/cap" --exit-after-streams 2 > "$LIVEDIR/self.log" &
SELF_PID=$!
for _ in $(seq 100); do
  grep -q '^ready' "$LIVEDIR/self.log" 2>/dev/null && break; sleep 0.1
done
SPORT="$(awk '/^bridge /{print $2}' "$LIVEDIR/self.log")"
"$CLI" connect --port "$SPORT" --in "$LIVEDIR/in1.bin" >/dev/null
wait "$SELF_PID"
cmp "$LIVEDIR/in1.bin" "$LIVEDIR/stream-p0-s71.bin"
"$CLI" trace "$LIVEDIR/cap-s71.ldlcap" >/dev/null
echo "self-peer capture traces clean"

echo "== PDES identity smoke (gating) =="
# One constellation run, serial vs 4-way partitioned: the metrics registry
# JSON and the raw capture bytes must be identical — any event reordered
# anywhere between partitions diverges the capture stream.  (The exhaustive
# version, including chaos and contact churn, is
# tests/integration/test_pdes_identity.cpp; this re-checks the contract on
# the installed CLI binary.)
PDESDIR="$CAPDIR/pdes"
mkdir -p "$PDESDIR"
for parts in 1 4; do
  "$CLI" network --sats 16 --planes 1 --waves 4 --packets-per-wave 15 \
    --horizon-s 60 --seed 11 --partitions "$parts" \
    --metrics-out "$PDESDIR/m$parts.json" \
    --capture-out "$PDESDIR/c$parts.ldlcap" > "$PDESDIR/r$parts.txt"
done
cmp "$PDESDIR/m1.json" "$PDESDIR/m4.json"
cmp "$PDESDIR/c1.ldlcap" "$PDESDIR/c4.ldlcap"
diff <(grep -v '^partitions' "$PDESDIR/r1.txt") \
     <(grep -v '^partitions' "$PDESDIR/r4.txt")
echo "PDES@4 byte-identical to serial (metrics + capture + report)"

echo "ci green"
