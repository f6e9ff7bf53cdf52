#!/usr/bin/env bash
# Reproduce everything: build, run the full test suite, regenerate every
# experiment table (E1..E17), and capture the outputs at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j "$(nproc)"

ctest --test-dir build -j "$(nproc)" 2>&1 | tee test_output.txt

{
  for n in $(seq 1 17); do
    build/bench/bench_e"$n"_*
    echo
  done
  ./build/bench/bench_kernel
} 2>&1 | tee bench_output.txt

echo "Done: see test_output.txt and bench_output.txt"
