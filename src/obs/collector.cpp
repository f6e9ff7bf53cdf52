#include "lamsdlc/obs/collector.hpp"

#include <algorithm>
#include <iterator>
#include <string>

namespace lamsdlc::obs {
namespace {

/// Metric-name pieces.  The source name doubles as the metric prefix
/// ("link.forward", "lams.sender", ...), so link metrics split by direction.
const char* part(const char* s) noexcept { return s; }
const char* part(Source s) noexcept { return to_string(s); }
const char* part(TimerId t) noexcept { return to_string(t); }
const char* part(RecoveryReason r) noexcept { return to_string(r); }
const char* part(AuditCheck c) noexcept { return to_string(c); }
const char* part(BufferId b) noexcept { return to_string(b); }

/// A drop cause names its counter by outcome, not by cause.
const char* part(DropCause c) noexcept {
  switch (c) {
    case DropCause::kWireCorruption: return "wire_corrupted";
    case DropCause::kFaultDrop: return "fault_dropped";
    case DropCause::kFaultTruncation: return "fault_truncated";
    case DropCause::kFaultJitter: return "fault_delayed";
    case DropCause::kFaultDuplicate: return "fault_duplicated";
    case DropCause::kLinkDown: return "down_dropped";
    case DropCause::kNoSink: return "no_sink_dropped";
    case DropCause::kCongestion: return "congestion_discards";
    case DropCause::kStaleSequence: return "duplicates_suppressed";
    case DropCause::kCorruptControl: return "corrupt_control_discards";
  }
  return "dropped";
}

Counter& lookup(Registry& r, const std::string& name, Counter*) { return r.counter(name); }
Gauge& lookup(Registry& r, const std::string& name, Gauge*) { return r.gauge(name); }
LogHistogram& lookup(Registry& r, const std::string& name, LogHistogram*) {
  return r.histogram(name);
}

/// The slot of enum value \p v in a table with one spare slot at the end.
template <typename Metric, std::size_t N, typename Enum>
Metric*& at(std::array<Metric*, N>& table, Enum v) noexcept {
  return table[std::min<std::size_t>(static_cast<std::size_t>(v), N - 1)];
}

}  // namespace

MetricsCollector::MetricsCollector(EventBus& bus, Registry& registry)
    : bus_{bus}, registry_{registry} {
  sub_ = bus_.subscribe([this](const Event& e) { on_event(e); });
}

MetricsCollector::~MetricsCollector() { bus_.unsubscribe(sub_); }

template <typename Metric, typename... Parts>
Metric& MetricsCollector::resolve(Metric*& slot, Parts... name_parts) {
  if (slot == nullptr) [[unlikely]] {
    std::string name;
    ((name += part(name_parts)), ...);
    slot = &lookup(registry_, name, slot);
  }
  return *slot;
}

void MetricsCollector::on_event(const Event& e) {
  const Source s = e.source;
  SourceHandles& h =
      handles_[std::min<std::size_t>(static_cast<std::size_t>(s), kSourceCount)];
  switch (e.kind) {
    case EventKind::kFrameSent:
      if (e.p.frame.control) {
        resolve(h.control_tx, s, ".control_tx").add();
      } else {
        resolve(h.iframe_tx, s, ".iframe_tx").add();
        if (e.p.frame.attempt > 1) {
          resolve(h.iframe_retx, s, ".iframe_retx").add();
        }
      }
      break;
    case EventKind::kFrameReceived:
      if (e.p.frame.control) {
        resolve(h.control_rx, s, ".control_rx").add();
      } else {
        resolve(h.iframe_rx, s, ".iframe_rx").add();
      }
      break;
    case EventKind::kFrameReleased:
      resolve(h.frames_released, s, ".frames_released").add();
      resolve(h.holding_time, s, ".holding_time_ms")
          .observe(static_cast<double>(e.p.frame.holding_ps) * 1e-9);
      break;
    case EventKind::kRetransmitQueued:
      resolve(h.retransmits_queued, s, ".retransmits_queued").add();
      break;
    case EventKind::kFrameCorrupted:
    case EventKind::kFrameDropped:
    case EventKind::kFrameDuplicated:
    case EventKind::kFrameDelayed:
      resolve(at(h.drops, e.p.drop.cause), s, ".", e.p.drop.cause).add();
      break;
    case EventKind::kCheckpointEmitted:
      resolve(h.checkpoints_emitted, s, ".checkpoints_emitted").add();
      if (e.p.checkpoint.enforced()) {
        resolve(h.enforced_naks_emitted, s, ".enforced_naks_emitted").add();
      }
      cp_emitted_[e.p.checkpoint.cp_seq] = e.at;
      if (cp_emitted_.size() > kMaxPendingCheckpoints) {
        cp_emitted_.erase(cp_emitted_.begin());
      }
      break;
    case EventKind::kCheckpointProcessed: {
      resolve(h.checkpoints_processed, s, ".checkpoints_processed").add();
      if (e.p.checkpoint.missed > 0) {
        resolve(h.checkpoints_missed, s, ".checkpoints_missed")
            .add(e.p.checkpoint.missed);
      }
      const auto it = cp_emitted_.find(e.p.checkpoint.cp_seq);
      if (it != cp_emitted_.end()) {
        resolve(h.checkpoint_rtt, s, ".checkpoint_rtt_ms")
            .observe((e.at - it->second).ms());
        // Lost checkpoints with lower seq can never be processed now.
        cp_emitted_.erase(cp_emitted_.begin(), std::next(it));
      }
      break;
    }
    case EventKind::kNakGenerated:
      resolve(h.naks_generated, s, ".naks_generated").add();
      break;
    case EventKind::kBufferOccupancy: {
      const BufferId which = e.p.buffer.which;
      resolve(at(h.depth, which), s, ".", which, "_depth").set(e.p.buffer.depth);
      resolve(at(h.depth_hist, which), s, ".", which, "_depth_hist")
          .observe(e.p.buffer.depth);
      break;
    }
    case EventKind::kTimerArmed:
      resolve(at(h.timer_armed, e.p.timer.timer), s, ".timer_armed.",
              e.p.timer.timer)
          .add();
      break;
    case EventKind::kTimerFired:
      resolve(at(h.timer_fired, e.p.timer.timer), s, ".timer_fired.",
              e.p.timer.timer)
          .add();
      break;
    case EventKind::kRecoveryTransition:
      resolve(at(h.recovery, e.p.recovery.reason), s, ".recovery.",
              e.p.recovery.reason)
          .add();
      if (e.p.recovery.to == SenderMode::kEnforcedRecovery) {
        resolve(h.enforced_recoveries, s, ".enforced_recoveries").add();
      }
      if (e.p.recovery.to == SenderMode::kFailed) {
        resolve(h.failures, s, ".failures").add();
      }
      break;
    case EventKind::kRetransmitMapped:
      resolve(h.retransmits_mapped, s, ".retransmits_mapped").add();
      break;
    case EventKind::kPacketAdmitted:
      resolve(h.packets_admitted, s, ".packets_admitted").add();
      break;
    case EventKind::kPacketDelivered:
      resolve(h.packets_delivered, s, ".packets_delivered").add();
      break;
    case EventKind::kMetricSample:
      // Sampler snapshots are *of* this registry; folding them back in would
      // feed the metrics surface its own output.  Capture/timeline consumers
      // read them directly.
      break;
    case EventKind::kSelfAuditFailed:
      resolve(h.self_audit_failed, s, ".self_audit_failed").add();
      resolve(at(h.self_audit, e.p.audit.check), s, ".self_audit.",
              e.p.audit.check)
          .add();
      break;
    case EventKind::kStateCorrupted:
      resolve(state_corruptions_, "verif.state_corruptions").add();
      break;
    case EventKind::kResyncInitiated:
      resolve(h.resyncs_initiated, s, ".resyncs_initiated").add();
      resync_started_[e.p.resync.token] = e.at;
      break;
    case EventKind::kResyncCompleted: {
      resolve(h.resyncs_completed, s, ".resyncs_completed").add();
      // Recovery time spans the sender's whole episode: resync initiation to
      // acknowledged re-anchor.  Only the sender-side completion closes it
      // (the receiver emits its own kResyncCompleted when it applies).
      const auto it = resync_started_.find(e.p.resync.token);
      if (it != resync_started_.end() && e.source == Source::kLamsSender) {
        resolve(recovery_time_, "recovery.time_ms").observe((e.at - it->second).ms());
        resync_started_.erase(it);
      }
      break;
    }
  }
}

}  // namespace lamsdlc::obs
