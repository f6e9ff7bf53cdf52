#!/usr/bin/env bash
# Build test_rt with ThreadSanitizer and run it.
#
# Usage: scripts/check_tsan.sh [build-dir]
#
# test_rt is the suite whose tests drive a live WallClock loop from a second
# thread (the daemon tests scrape the status port while the loop runs), so it
# is where a cross-thread access would show.  A separate build directory
# (default build-tsan/) keeps the instrumented artifacts out of the regular
# build; only test_rt and what it links are built.  halt_on_error makes the
# first report fail the run, so a clean exit means a clean run.

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target test_rt

TSAN_OPTIONS="halt_on_error=1" "$BUILD_DIR/tests/test_rt"
echo "ThreadSanitizer test_rt run clean"
