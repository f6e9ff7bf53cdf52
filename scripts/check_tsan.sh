#!/usr/bin/env bash
# Build the threaded suites with ThreadSanitizer and run them.
#
# Usage: scripts/check_tsan.sh [build-dir]
#
# test_rt drives a live WallClock loop from a second thread (the daemon
# tests scrape the status port while the loop runs).  test_integration's
# PdesIdentity, ParallelDeterminism and ParallelSweep suites run PDES
# partitions and sweep jobs on worker threads; the rest of that binary is
# single-threaded and is not run here.  A separate build directory (default
# build-tsan/) keeps the instrumented artifacts out of the regular build;
# only these two binaries and what they link are built.  halt_on_error makes
# the first report fail the run, so a clean exit means a clean run.

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target test_rt test_integration

TSAN_OPTIONS="halt_on_error=1" "$BUILD_DIR/tests/test_rt"
TSAN_OPTIONS="halt_on_error=1" "$BUILD_DIR/tests/test_integration" \
  --gtest_filter='PdesIdentity.*:ParallelDeterminism.*:ParallelSweep.*'
echo "ThreadSanitizer test_rt and threaded test_integration run clean"
