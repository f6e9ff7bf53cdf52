#pragma once
/// \file workloads.hpp
/// \brief The benchmark's three workloads and the metric catalogue they
///        report into.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< Length of the measured run phase.
  bool trace = false;   ///< Per-layer (traced) run instead of end to end.
};

/// Each workload fills \p m with every end-to-end metric (trace off) or
/// every per-layer metric (trace on), and records failures in \p out.
void run_link_8k(const Options& opt, Metrics& m, Outcome& out);
void run_constellation(const Options& opt, Metrics& m, Outcome& out);
void run_live_udp(const Options& opt, Metrics& m, Outcome& out);

/// The composed constellation run must reproduce `sim::run_network`:
/// returns false (and prints the difference) when the reports disagree.
bool check_constellation_matches_run_network(std::uint64_t seed);

/// \name Metric catalogue
/// @{
/// Every end-to-end metric, set from one run's measurements.
struct EndToEnd {
  double items_per_s = 0;
  double cpu_us_per_mib = 0;
  double latency_p50_ms = 0;
  double latency_p90_ms = 0;
  std::size_t latency_samples = 0;
  double setup_s = 0;
};
void set_end_to_end(Metrics& m, const EndToEnd& e);

/// A simulated workload's end-to-end metrics: rates and CPU cost from the
/// slow quartile of the jobs (see JobLeg); latency is the quantile over jobs
/// of the simulated time a batch took to be delivered in full, which is
/// protocol output, deterministic per job and not speed; set-up is the
/// median of the jobs' set-ups.
template <class Job>
EndToEnd sim_end_to_end(const JobLeg<Job>& leg, double bytes_per_item) {
  std::vector<double> lat, setup;
  for (const Job& j : leg.jobs) {
    lat.push_back(j.transfer_s * 1e3);
    setup.push_back(static_cast<double>(j.setup_ns) * 1e-9);
  }
  EndToEnd e;
  e.items_per_s = leg.items_per_s();
  e.cpu_us_per_mib = leg.cpu_us_per_mib(bytes_per_item);
  e.latency_samples = lat.size();
  e.latency_p50_ms = quantile(lat, 0.5);
  e.latency_p90_ms = quantile(lat, 0.9);
  e.setup_s = median(setup);
  return e;
}

/// Seed \p m with every per-layer metric at 0, so a layer a workload does
/// not cross still reads (as 0) and every traced run prints the full set.
void init_per_layer(Metrics& m);

/// The `core`, `link`, `lams` and `frame.rejects_per_item` metrics from a
/// run's summed protocol counts over \p items delivered in \p run_ns;
/// `link.*` stays 0 when no channel frame was counted (the live path).
void set_protocol_layers(Metrics& m, const LinkCounts& c, std::uint64_t rejects,
                         std::uint64_t items, std::int64_t run_ns);

/// Self time of every span (the root's own self time is `unattributed`),
/// plus the root's wall time; fails the outcome when they do not add up.
void set_self_times(Metrics& m, const Tracer& t, Outcome& out);

/// Timed `phy::crc16_ccitt` over \p bytes, ns per KiB (median of repeats).
[[nodiscard]] double crc16_ns_per_kib(std::size_t bytes);
/// Timed `frame::encode_into` + `frame::decode` of one I-frame carrying
/// \p bytes, ns per frame (median of repeats).
[[nodiscard]] double codec_ns_per_frame(std::uint32_t bytes, Outcome& out);

/// Traced-vs-untraced difference, percent of the untraced value.
void set_trace_overhead(Metrics& m, double items_untraced, double items_traced,
                        double cpu_untraced, double cpu_traced);
/// @}

}  // namespace perfbench
