#pragma once
/// \file run_network.hpp
/// \brief One-call constellation-scale network run: Walker geometry, contact
///        churn, seeded traffic, optional PDES partitioning.
///
/// `run_network` is the driver behind `lamsdlc_cli network` and the PDES
/// identity tests: it builds a Walker-delta constellation, derives its
/// contact plan, wires one LAMS link per grid pair (up only inside its
/// visibility windows — links fail and fail over as geometry churns), injects
/// a seeded traffic schedule through `Network::at` global operations, and
/// runs to completion — serially, or partitioned across `partitions` event
/// kernels via the conservative PDES engine (`Network::enable_pdes`).
///
/// **Identity contract.**  Every field of the result — the delivery report,
/// the metrics JSON, the raw capture bytes — is byte-identical at every
/// partition count, because `partitions == 1` runs the exact same windowed
/// code path the parallel runs use.  Observability is collected per channel
/// into private buffers (each touched by exactly one partition) and merged
/// afterwards in a canonical order, so the artifacts are deterministic
/// without any cross-partition synchronization during the run.

#include <cstddef>
#include <cstdint>
#include <string>

#include "lamsdlc/core/time.hpp"
#include "lamsdlc/net/network.hpp"

namespace lamsdlc::sim {

struct NetworkRunConfig {
  /// \name Constellation geometry (Walker delta i:t/p/f)
  /// @{
  std::uint32_t satellites = 112;
  std::uint32_t planes = 8;
  std::uint32_t phasing = 1;
  double altitude_m = 1.0e6;
  double inclination_rad = 0.9;
  double max_range_m = 8.0e6;         ///< ISL acquisition range.
  Time contact_step = Time::seconds_int(10);   ///< Plan sampling step.
  Time min_contact = Time::seconds_int(30);    ///< Shortest usable pass.
  /// @}

  /// \name Execution
  /// @{
  std::size_t partitions = 1;  ///< PDES logical processes; 1 = serial ref.
  Time horizon = Time::seconds_int(600);
  std::uint64_t seed = 1;
  /// @}

  /// \name Links
  /// @{
  double data_rate_bps = 50e6;
  Time checkpoint_interval = Time::milliseconds(20);
  std::uint32_t cumulation_depth = 4;
  Time max_rtt = Time::milliseconds(200);
  double p_frame = 0.0;   ///< Frame error probability, both directions.
  double p_control = 0.0; ///< Control (checkpoint) error probability.
  /// @}

  /// \name Traffic
  /// `waves` bursts, one every `wave_interval`, each injecting
  /// `packets_per_wave` packets between seeded random distinct node pairs
  /// (plus one segmented message per wave when `message_segments > 0`).
  /// One `Network::at` op per wave keeps the PDES barrier count low.
  /// @{
  std::uint32_t waves = 20;
  Time wave_interval = Time::seconds_int(1);
  std::uint32_t packets_per_wave = 100;
  std::uint32_t packet_bytes = 1024;
  std::uint32_t message_segments = 0;
  /// @}

  /// Collect metrics + capture artifacts (identity comparisons).  Costs
  /// memory proportional to the event count — leave off for throughput
  /// benches.
  bool observe = false;

  /// Periodic registry sampling for `inspect --timeline`: when positive,
  /// the capture carries the same `kMetricSample` ticks a live
  /// `obs::Sampler` would emit, synthesized on the canonical merged event
  /// stream — so they are byte-identical at every partition count.
  /// Implies `observe`.  Non-positive = off.
  Time sample_period{};
};

struct NetworkRunResult {
  net::NetworkReport report;
  bool completed = false;
  std::size_t nodes = 0;
  std::size_t links = 0;
  std::uint64_t contacts = 0;     ///< Plan rows driving the link windows.
  std::uint64_t events = 0;       ///< Merged observability events.
  std::string metrics_json;       ///< Empty when `observe` is off.
  std::string capture;            ///< Raw .ldlcap bytes; empty when off.
  double elapsed_s = 0;           ///< Wall-clock run time (never compared).
};

[[nodiscard]] NetworkRunResult run_network(const NetworkRunConfig& cfg);

}  // namespace lamsdlc::sim
