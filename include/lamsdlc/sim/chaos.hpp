#pragma once
/// \file chaos.hpp
/// \brief Seeded randomized fault-schedule harness ("chaos runs").
///
/// One chaos run builds a LAMS-DLC scenario, draws a random fault schedule
/// from a seed — fault-stage episodes (drop / duplicate / reorder / truncate
/// / corrupt, forward or reverse, windowed), optional full link outages,
/// optional congestion (small receiving buffers + slow processing, forcing
/// Stop-Go and congestion discards), random background channel noise and a
/// random workload shape — then runs it under a `sim::InvariantChecker`.
///
/// Everything is derived deterministically from the seed, so a failing run
/// reproduces from the single number printed in the verdict.  The soak test
/// (`tests/integration/test_chaos_soak.cpp`) sweeps hundreds of seeds; the
/// `chaos` subcommand of `tools/lamsdlc_cli` replays one.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "lamsdlc/core/time.hpp"
#include "lamsdlc/sim/scenario.hpp"

namespace lamsdlc::sim {

/// What a chaos schedule may contain.  Disabling classes narrows the attack
/// (e.g. reverse-only faults for the feedback-channel experiments).
struct ChaosKnobs {
  std::uint64_t seed = 1;
  std::uint64_t packets = 200;
  std::uint32_t frame_bytes = 1024;
  Time horizon = Time::seconds_int(30);

  /// \name Fault-fate classes a schedule may draw
  /// @{
  bool allow_drop = true;
  bool allow_duplicate = true;
  bool allow_reorder = true;
  bool allow_truncate = true;
  bool allow_corrupt = true;
  /// @}

  /// \name Attack surfaces
  /// @{
  bool allow_forward_faults = true;  ///< I-frame direction episodes.
  bool allow_reverse_faults = true;  ///< Checkpoint direction episodes.
  bool allow_link_outage = true;     ///< Full two-way outages (may exceed the
                                     ///< failure budget → declared failure).
  bool allow_congestion = true;      ///< Small receive buffers + slow t_proc.
  bool allow_base_noise = true;      ///< Random background error models.
  /// @}

  /// \name Feedback-error asymmetry (ROADMAP 5(b))
  /// The paper's E-series fixes the forward channel and sweeps the feedback
  /// error rate; these knobs pin the reverse channel independently of the
  /// seed-drawn schedule so a sensitivity sweep varies *only* the feedback
  /// quality.
  /// @{
  /// >= 0: pin the reverse-channel per-frame error probability to exactly
  /// this value (applied after — and overriding — any drawn base noise).
  /// Negative (default) leaves the drawn schedule alone.
  double reverse_noise = -1.0;
  /// Non-zero length: a reverse-only outage window (the forward channel
  /// stays up — checkpoints silently vanish, the sender's silence detector
  /// must carry the run).
  Time reverse_outage_from{};
  Time reverse_outage_len{};
  /// @}

  /// Enable the self-stabilization layer (periodic self-audit, progress
  /// watchdog, RESYNC recovery) in the endpoint config.  Off by default so
  /// existing chaos behavior is bit-identical.
  bool self_heal = false;

  /// Ablation: wire the receiver's duplicate suppression off to prove the
  /// invariant checker catches duplicate client delivery.  Tests only.
  bool suppress_duplicates = true;

  /// Non-zero: run an obs::Sampler at this cadence, so the event stream (and
  /// any capture the tap attaches) carries periodic registry snapshots for
  /// `lamsdlc_cli inspect --timeline`.
  Time sample_period{};

  /// Invoked on the freshly built scenario before any traffic starts —
  /// the hook for attaching observers (e.g. an obs::CaptureWriter
  /// subscription on `scenario.events()` for `lamsdlc_cli capture`).
  std::function<void(Scenario&)> tap;
};

/// Outcome of one chaos run.
struct ChaosVerdict {
  bool ok = false;               ///< Every invariant held.
  bool completed = false;        ///< All packets delivered, sender idle.
  bool declared_failed = false;  ///< Sender declared unrecoverable failure.
  std::vector<std::string> violations;
  /// Printable reproduction recipe: the seed plus the full drawn schedule.
  std::string schedule;
  ScenarioReport report;

  /// \name Fault/link counters (both directions summed)
  /// @{
  std::uint64_t faults_dropped = 0;
  std::uint64_t faults_duplicated = 0;
  std::uint64_t faults_delayed = 0;
  std::uint64_t faults_truncated = 0;
  std::uint64_t frames_corrupted = 0;
  std::uint64_t reverse_faulted = 0;  ///< Fault events on the reverse channel.
  std::uint64_t congestion_discards = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t request_naks = 0;
  std::uint64_t checkpoints_sent = 0;
  /// @}

  /// Full obs::Registry snapshot of the run (chaos always enables metrics);
  /// the counters above are read back from the same registry.
  std::string metrics_json;

  /// Verdict + violations + schedule in one printable block.
  [[nodiscard]] std::string to_string() const;
};

/// Run one seeded chaos scenario to termination and audit it.
[[nodiscard]] ChaosVerdict run_chaos(const ChaosKnobs& knobs);

}  // namespace lamsdlc::sim
