#pragma once
/// \file collector.hpp
/// \brief Event-stream → metrics bridge.
///
/// `MetricsCollector` subscribes to an `EventBus` and folds the typed event
/// stream into a `Registry`: counters for frame/checkpoint/fault outcomes,
/// histograms for holding time, checkpoint RTT and buffer depth.  Components
/// stay metrics-agnostic — they emit events; this one subscriber decides
/// which become metrics and under what names (catalogue in
/// docs/OBSERVABILITY.md).

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>

#include "lamsdlc/core/time.hpp"
#include "lamsdlc/obs/bus.hpp"
#include "lamsdlc/obs/event.hpp"
#include "lamsdlc/obs/metrics.hpp"

namespace lamsdlc::obs {

/// Subscribes on construction, unsubscribes on destruction.  Both the bus
/// and the registry must outlive the collector.
class MetricsCollector {
 public:
  /// Checkpoint emit instants kept for RTT pairing.  A bus that never
  /// carries the sender's kCheckpointProcessed (a receiving daemon) would
  /// otherwise keep one per checkpoint forever; past this many the lowest
  /// cp_seq is evicted.  At the default W_cp of 5 ms it spans ~20 s of
  /// unanswered checkpoints.
  static constexpr std::size_t kMaxPendingCheckpoints = 4096;

  MetricsCollector(EventBus& bus, Registry& registry);
  ~MetricsCollector();

  MetricsCollector(const MetricsCollector&) = delete;
  MetricsCollector& operator=(const MetricsCollector&) = delete;

  [[nodiscard]] Registry& registry() noexcept { return registry_; }

  /// Emitted checkpoints still waiting for their kCheckpointProcessed
  /// (diagnostic; never above kMaxPendingCheckpoints).
  [[nodiscard]] std::size_t pending_checkpoints() const noexcept {
    return cp_emitted_.size();
  }

 private:
  /// One source's metric handles.  Each is resolved on first use under its
  /// catalogue name, so the registry still creates metrics lazily, and is
  /// a plain pointer load after that (std::map nodes are stable).  Tables
  /// indexed by an event enum have one extra slot, shared by out-of-range
  /// values as they share the name "unknown".
  struct SourceHandles {
    Counter* control_tx = nullptr;
    Counter* iframe_tx = nullptr;
    Counter* iframe_retx = nullptr;
    Counter* control_rx = nullptr;
    Counter* iframe_rx = nullptr;
    Counter* frames_released = nullptr;
    Counter* retransmits_queued = nullptr;
    Counter* checkpoints_emitted = nullptr;
    Counter* enforced_naks_emitted = nullptr;
    Counter* checkpoints_processed = nullptr;
    Counter* checkpoints_missed = nullptr;
    Counter* naks_generated = nullptr;
    Counter* enforced_recoveries = nullptr;
    Counter* failures = nullptr;
    Counter* retransmits_mapped = nullptr;
    Counter* packets_admitted = nullptr;
    Counter* packets_delivered = nullptr;
    Counter* self_audit_failed = nullptr;
    Counter* resyncs_initiated = nullptr;
    Counter* resyncs_completed = nullptr;
    std::array<Counter*, kDropCauseCount + 1> drops{};
    std::array<Counter*, kTimerIdCount + 1> timer_armed{};
    std::array<Counter*, kTimerIdCount + 1> timer_fired{};
    std::array<Counter*, kRecoveryReasonCount + 1> recovery{};
    std::array<Counter*, kAuditCheckCount + 1> self_audit{};
    std::array<Gauge*, kBufferIdCount + 1> depth{};
    std::array<LogHistogram*, kBufferIdCount + 1> depth_hist{};
    LogHistogram* holding_time = nullptr;
    LogHistogram* checkpoint_rtt = nullptr;
  };

  void on_event(const Event& e);
  template <typename Metric, typename... Parts>
  Metric& resolve(Metric*& slot, Parts... name_parts);

  EventBus& bus_;
  Registry& registry_;
  EventBus::SubscriptionId sub_{0};
  std::array<SourceHandles, kSourceCount + 1> handles_{};
  Counter* state_corruptions_ = nullptr;
  LogHistogram* recovery_time_ = nullptr;
  /// Checkpoint emit instants by cp_seq, matched against the sender-side
  /// kCheckpointProcessed to produce `lams.sender.checkpoint_rtt_ms`.
  /// Entries at or below a processed cp_seq are pruned (lost checkpoints
  /// never match), and the lowest goes past kMaxPendingCheckpoints.
  std::map<std::uint32_t, Time> cp_emitted_;
  /// RESYNC initiation instants by token, matched against the sender-side
  /// kResyncCompleted to produce the `recovery.time_ms` histogram.
  std::map<std::uint32_t, Time> resync_started_;
};

}  // namespace lamsdlc::obs
