/// \file main.cpp
/// \brief `lamsdlc_perfbench`: one workload per process, one JSON result line.
///
///   lamsdlc_perfbench --workload link_8k|constellation|live_udp
///                     --seed N --seconds S --trace 0|1
///   lamsdlc_perfbench --check-run-network [--seed N]
///
/// The last line of standard output is
/// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`;
/// the exit code is 0 only when every output check passed.  A human-readable
/// table of the same metrics, the host facts and any violations come first.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "lamsdlc/phy/crc.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metrics;
using perfbench::Options;
using perfbench::Outcome;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "lamsdlc_perfbench: %s\n"
               "usage: lamsdlc_perfbench --workload link_8k|constellation|"
               "live_udp --seed N --seconds S --trace 0|1\n"
               "       lamsdlc_perfbench --check-run-network [--seed N]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage((std::string{"bad value for "} + flag).c_str());
  return v;
}

void print_result(const Metrics& m, const Outcome& out) {
  for (const auto& r : m.rows()) {
    std::printf("  %-30s %16.6g %s\n", r.name.c_str(), r.value, r.unit.c_str());
  }
  for (const std::string& v : out.violations) {
    std::printf("VIOLATION: %s\n", v.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  bool first = true;
  for (const auto& r : m.rows()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", r.name.c_str(), r.value, r.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool check_run_network = false;
  bool have_seconds = false, have_trace = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = parse_u64(value(), "--seed");
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64(value(), "--seconds"));
      have_seconds = true;
    } else if (a == "--trace") {
      const std::uint64_t t = parse_u64(value(), "--trace");
      if (t > 1) usage("--trace takes 0 or 1");
      opt.trace = t == 1;
      have_trace = true;
    } else if (a == "--check-run-network") {
      check_run_network = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }

  if (check_run_network) {
    return perfbench::check_constellation_matches_run_network(have_seed ? opt.seed : 1)
               ? 0
               : 1;
  }
  if (opt.workload.empty() || !have_seconds || !have_trace || !have_seed) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (opt.seconds < 1 || opt.seconds > 120) usage("--seconds must be 1..120");
  using Runner = void (*)(const Options&, Metrics&, Outcome&);
  Runner runner = nullptr;
  if (opt.workload == "link_8k") {
    runner = perfbench::run_link_8k;
  } else if (opt.workload == "constellation") {
    runner = perfbench::run_constellation;
  } else if (opt.workload == "live_udp") {
    runner = perfbench::run_live_udp;
  } else {
    usage(("unknown workload " + opt.workload).c_str());
  }

  std::printf("host: nproc=%ld crc_backend=%s build_type=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), lamsdlc::phy::crc_backend(),
              PERFBENCH_BUILD_TYPE);
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::fflush(stdout);

  Metrics m;
  Outcome out;
  runner(opt, m, out);
  if (out.attempted == 0) out.violate("no items attempted");
  print_result(m, out);
  return out.correct ? 0 : 1;
}
