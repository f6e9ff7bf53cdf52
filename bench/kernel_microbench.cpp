/// Kernel microbenchmark: raw speed of the simulation substrate.  This is
/// an engineering benchmark, not a paper experiment — it bounds how large a
/// constellation-scale study the library supports, and it times what
/// perfbench's end-to-end workloads cannot isolate: the event kernel alone.
///
/// `bench_kernel [OPS]` times the three canonical kernel workloads from
/// bench/kernel_workloads.hpp (OPS operations each, default 2000000, best
/// of 3) and prints one JSON object of ops/sec per workload.  That object
/// is what scripts/bench_baseline.sh appends to BENCH_ledger.jsonl; because
/// the workloads live in a standalone header, the same code can be compiled
/// against any kernel revision for honest before/after comparisons.

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "kernel_workloads.hpp"

namespace {

using namespace lamsdlc;

/// Best-of-three ops/sec, like any careful manual timing run.
double best_rate(bench::WorkloadResult (*wl)(std::uint64_t),
                 std::uint64_t ops) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    best = std::max(best, wl(ops).ops_per_sec());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t ops = 2'000'000;
  if (argc > 2) {
    std::fprintf(stderr, "usage: bench_kernel [OPS]\n");
    return 2;
  }
  if (argc == 2) {
    const char* s = argv[1];
    const char* end = s + std::strlen(s);
    const auto [p, ec] = std::from_chars(s, end, ops);
    if (ec != std::errc{} || p != end || ops == 0) {
      std::fprintf(stderr,
                   "bench_kernel: bad value '%s' for OPS: want an integer "
                   ">= 1\n",
                   s);
      return 2;
    }
  }
  const double schedule_fire = best_rate(bench::wl_schedule_fire, ops);
  const double cancel_heavy = best_rate(bench::wl_cancel_heavy, ops);
  const double timer_rearm = best_rate(bench::wl_timer_rearm, ops);
  std::printf("{\n");
  std::printf("  \"ops\": %llu,\n", static_cast<unsigned long long>(ops));
  std::printf("  \"schedule_fire_ops_per_sec\": %.0f,\n", schedule_fire);
  std::printf("  \"cancel_heavy_ops_per_sec\": %.0f,\n", cancel_heavy);
  std::printf("  \"timer_rearm_ops_per_sec\": %.0f\n", timer_rearm);
  std::printf("}\n");
  return 0;
}
