#include "lamsdlc/obs/event.hpp"

#include <algorithm>
#include <sstream>
#include <type_traits>

namespace lamsdlc::obs {
namespace {

/// Appends one payload field to a JSON object, as its encoding says.
template <class P, class M, class W>
void put_json(std::ostream& os, const P& p, const Field<P, M, W>& f) {
  const M& v = p.*f.member;
  if constexpr (std::is_same_v<W, wire::Bits>) {
    for (unsigned i = 0; i < 8 && f.wire.names[i] != nullptr; ++i) {
      os << ",\"" << f.wire.names[i]
         << "\":" << ((v >> i) & 1u ? "true" : "false");
    }
  } else {
    os << ",\"" << f.key << "\":";
    if constexpr (std::is_same_v<W, wire::Bool>) {
      os << (v ? "true" : "false");
    } else if constexpr (std::is_same_v<W, wire::Byte>) {
      os << static_cast<unsigned>(v);
    } else if constexpr (std::is_same_v<W, wire::Enum>) {
      os << '"' << to_string(v) << '"';
    } else if constexpr (std::is_same_v<W, wire::Choice>) {
      os << '"' << (v == 0 ? f.wire.zero : f.wire.nonzero) << '"';
    } else if constexpr (std::is_same_v<W, wire::Text>) {
      // Metric names are dot/underscore identifiers; nothing to escape.
      const std::string_view s{v.data(), v.size()};
      os << '"' << s.substr(0, s.find('\0')) << '"';
    } else if constexpr (wire::is_counted_by<W>) {
      const std::size_t n = std::min<std::size_t>(p.*f.wire.count, v.size());
      os << '[';
      for (std::size_t i = 0; i < n; ++i) os << (i ? "," : "") << v[i];
      os << ']';
    } else {
      os << v;  // Varint, Svarint, F64
    }
  }
}

const char* frame_verb(EventKind k) noexcept {
  switch (k) {
    case EventKind::kFrameSent: return "tx";
    case EventKind::kFrameReceived: return "rx";
    case EventKind::kFrameReleased: return "released";
    case EventKind::kRetransmitQueued: return "retx-queued";
    default: return "?";
  }
}

}  // namespace

bool operator==(const Event& a, const Event& b) noexcept {
  if (a.at != b.at || a.source != b.source || a.kind != b.kind) return false;
  bool same = false;
  visit_payload(a.kind,
                [&](auto member) { same = a.p.*member == b.p.*member; });
  return same;
}

const char* to_string(EventKind k) noexcept {
  switch (k) {
    case EventKind::kFrameSent: return "frame_sent";
    case EventKind::kFrameReceived: return "frame_received";
    case EventKind::kFrameReleased: return "frame_released";
    case EventKind::kRetransmitQueued: return "retransmit_queued";
    case EventKind::kFrameCorrupted: return "frame_corrupted";
    case EventKind::kFrameDropped: return "frame_dropped";
    case EventKind::kFrameDuplicated: return "frame_duplicated";
    case EventKind::kFrameDelayed: return "frame_delayed";
    case EventKind::kCheckpointEmitted: return "checkpoint_emitted";
    case EventKind::kCheckpointProcessed: return "checkpoint_processed";
    case EventKind::kNakGenerated: return "nak_generated";
    case EventKind::kBufferOccupancy: return "buffer_occupancy";
    case EventKind::kTimerArmed: return "timer_armed";
    case EventKind::kTimerFired: return "timer_fired";
    case EventKind::kRecoveryTransition: return "recovery_transition";
    case EventKind::kRetransmitMapped: return "retransmit_mapped";
    case EventKind::kPacketAdmitted: return "packet_admitted";
    case EventKind::kPacketDelivered: return "packet_delivered";
    case EventKind::kMetricSample: return "metric_sample";
    case EventKind::kSelfAuditFailed: return "self_audit_failed";
    case EventKind::kStateCorrupted: return "state_corrupted";
    case EventKind::kResyncInitiated: return "resync_initiated";
    case EventKind::kResyncCompleted: return "resync_completed";
  }
  return "unknown";
}

const char* to_string(Source s) noexcept {
  switch (s) {
    case Source::kLamsSender: return "lams.sender";
    case Source::kLamsReceiver: return "lams.receiver";
    case Source::kLinkForward: return "link.forward";
    case Source::kLinkReverse: return "link.reverse";
    case Source::kOther: return "other";
  }
  return "unknown";
}

const char* to_string(DropCause c) noexcept {
  switch (c) {
    case DropCause::kWireCorruption: return "wire_corruption";
    case DropCause::kFaultDrop: return "fault_drop";
    case DropCause::kFaultTruncation: return "fault_truncation";
    case DropCause::kFaultJitter: return "fault_jitter";
    case DropCause::kFaultDuplicate: return "fault_duplicate";
    case DropCause::kLinkDown: return "link_down";
    case DropCause::kNoSink: return "no_sink";
    case DropCause::kCongestion: return "congestion";
    case DropCause::kStaleSequence: return "stale_sequence";
    case DropCause::kCorruptControl: return "corrupt_control";
  }
  return "unknown";
}

const char* to_string(TimerId t) noexcept {
  switch (t) {
    case TimerId::kCheckpointTimer: return "checkpoint_timer";
    case TimerId::kFailureTimer: return "failure_timer";
    case TimerId::kCheckpointCadence: return "checkpoint_cadence";
    case TimerId::kResyncTimer: return "resync_timer";
    case TimerId::kSelfAuditCadence: return "self_audit_cadence";
    case TimerId::kWatchdogTimer: return "watchdog_timer";
  }
  return "unknown";
}

const char* to_string(SenderMode m) noexcept {
  switch (m) {
    case SenderMode::kNormal: return "normal";
    case SenderMode::kEnforcedRecovery: return "enforced_recovery";
    case SenderMode::kFailed: return "failed";
    case SenderMode::kResyncing: return "resyncing";
  }
  return "unknown";
}

const char* to_string(RecoveryReason r) noexcept {
  switch (r) {
    case RecoveryReason::kCheckpointSilence: return "checkpoint_silence";
    case RecoveryReason::kNakGapAmbiguity: return "nak_gap_ambiguity";
    case RecoveryReason::kEnforcedNakResolved: return "enforced_nak_resolved";
    case RecoveryReason::kFailureTimeout: return "failure_timeout";
    case RecoveryReason::kLifetimeExhausted: return "lifetime_exhausted";
    case RecoveryReason::kSelfAuditFailure: return "self_audit_failure";
    case RecoveryReason::kProgressWatchdog: return "progress_watchdog";
    case RecoveryReason::kResyncRequested: return "resync_requested";
    case RecoveryReason::kImplausibleAck: return "implausible_ack";
    case RecoveryReason::kResyncExhausted: return "resync_exhausted";
    case RecoveryReason::kResyncCompleted: return "resync_completed";
  }
  return "unknown";
}

const char* to_string(AuditCheck c) noexcept {
  switch (c) {
    case AuditCheck::kSenderCtrCoherence: return "sender_ctr_coherence";
    case AuditCheck::kSenderWindowBound: return "sender_window_bound";
    case AuditCheck::kSenderCpTracking: return "sender_cp_tracking";
    case AuditCheck::kSenderTimerCoherence: return "sender_timer_coherence";
    case AuditCheck::kSenderPacingStuck: return "sender_pacing_stuck";
    case AuditCheck::kReceiverAnchorCoherence:
      return "receiver_anchor_coherence";
    case AuditCheck::kReceiverSeqCoherence: return "receiver_seq_coherence";
    case AuditCheck::kReceiverNakCoherence: return "receiver_nak_coherence";
    case AuditCheck::kReceiverHistoryOrder: return "receiver_history_order";
    case AuditCheck::kReceiverHuskStall: return "receiver_husk_stall";
    case AuditCheck::kReceiverCadenceStall: return "receiver_cadence_stall";
  }
  return "unknown";
}

const char* to_string(BufferId b) noexcept {
  switch (b) {
    case BufferId::kSendBuffer: return "send_buffer";
    case BufferId::kRecvBuffer: return "recv_buffer";
  }
  return "unknown";
}

std::optional<EventKind> kind_from_string(std::string_view name) noexcept {
  for (std::uint8_t i = 0; i < kEventKindCount; ++i) {
    const auto k = static_cast<EventKind>(i);
    if (name == to_string(k)) return k;
  }
  return std::nullopt;
}

std::optional<Source> source_from_string(std::string_view name) noexcept {
  for (std::uint8_t i = 0; i < kSourceCount; ++i) {
    const auto s = static_cast<Source>(i);
    if (name == to_string(s)) return s;
  }
  return std::nullopt;
}

std::string describe(const Event& e) {
  std::ostringstream os;
  switch (e.kind) {
    case EventKind::kFrameSent:
    case EventKind::kFrameReceived:
    case EventKind::kRetransmitQueued: {
      const auto& f = e.p.frame;
      os << (f.control ? "control " : "iframe ") << frame_verb(e.kind)
         << " ctr=" << f.ctr;
      if (!f.control) os << " pkt=" << f.packet_id;
      if (f.attempt > 0) os << " attempt=" << f.attempt;
      break;
    }
    case EventKind::kFrameReleased: {
      const auto& f = e.p.frame;
      os << "iframe released ctr=" << f.ctr << " pkt=" << f.packet_id
         << " held=" << static_cast<double>(f.holding_ps) * 1e-9 << "ms";
      break;
    }
    case EventKind::kFrameCorrupted:
    case EventKind::kFrameDropped:
    case EventKind::kFrameDuplicated:
    case EventKind::kFrameDelayed: {
      const auto& d = e.p.drop;
      os << (d.control ? "control " : "frame ") << to_string(e.kind) + 6
         << " cause=" << to_string(d.cause);
      if (d.ctr != 0) os << " ctr=" << d.ctr;
      break;
    }
    case EventKind::kCheckpointEmitted:
    case EventKind::kCheckpointProcessed: {
      const auto& cp = e.p.checkpoint;
      os << (e.kind == EventKind::kCheckpointEmitted ? "checkpoint tx seq="
                                                     : "checkpoint rx seq=")
         << cp.cp_seq << " highest=" << cp.highest_seen
         << " naks=" << cp.nak_count;
      if (cp.missed > 0) os << " missed=" << cp.missed;
      if (cp.enforced()) os << " enforced";
      if (cp.stop_go()) os << " stop-go";
      if (cp.resync_req()) os << " resync-req";
      if (cp.nak_count > 0) {
        os << " [";
        for (std::size_t i = 0; i < cp.inline_naks(); ++i) {
          if (i) os << ' ';
          os << cp.naks[i];
        }
        if (cp.nak_count > kMaxInlineNaks) os << " ...";
        os << ']';
      }
      break;
    }
    case EventKind::kNakGenerated:
      os << "nak ctr=" << e.p.nak.ctr;
      break;
    case EventKind::kBufferOccupancy:
      os << to_string(e.p.buffer.which) << " depth=" << e.p.buffer.depth;
      break;
    case EventKind::kTimerArmed:
      os << "timer armed " << to_string(e.p.timer.timer) << " deadline="
         << static_cast<double>(e.p.timer.deadline_ps) * 1e-9 << "ms";
      break;
    case EventKind::kTimerFired:
      os << "timer fired " << to_string(e.p.timer.timer);
      break;
    case EventKind::kRecoveryTransition:
      os << "mode " << to_string(e.p.recovery.from) << " -> "
         << to_string(e.p.recovery.to)
         << " reason=" << to_string(e.p.recovery.reason);
      break;
    case EventKind::kRetransmitMapped:
      os << "renumbered ctr " << e.p.map.old_ctr << " -> " << e.p.map.new_ctr
         << " pkt=" << e.p.map.packet_id << " attempt=" << e.p.map.attempt;
      break;
    case EventKind::kPacketAdmitted:
      os << "packet admitted pkt=" << e.p.frame.packet_id;
      break;
    case EventKind::kPacketDelivered:
      os << "packet delivered pkt=" << e.p.frame.packet_id
         << " ctr=" << e.p.frame.ctr;
      break;
    case EventKind::kMetricSample:
      os << "sample " << (e.p.sample.is_counter ? "counter " : "gauge ")
         << e.p.sample.name_view() << '=' << e.p.sample.value;
      break;
    case EventKind::kSelfAuditFailed:
      os << "self-audit failed " << to_string(e.p.audit.check)
         << " a=" << e.p.audit.a << " b=" << e.p.audit.b;
      break;
    case EventKind::kStateCorrupted:
      os << "state corrupted class=" << static_cast<unsigned>(e.p.corruption.cls)
         << " target=" << (e.p.corruption.target == 0 ? "sender" : "receiver")
         << " a=" << e.p.corruption.a << " b=" << e.p.corruption.b;
      break;
    case EventKind::kResyncInitiated:
      os << "resync initiated token=" << e.p.resync.token
         << " epoch=" << e.p.resync.epoch << " attempt=" << e.p.resync.attempt
         << " reason=" << to_string(e.p.resync.reason);
      break;
    case EventKind::kResyncCompleted:
      os << "resync completed token=" << e.p.resync.token
         << " epoch=" << e.p.resync.epoch << " attempt=" << e.p.resync.attempt;
      break;
  }
  return os.str();
}

std::string to_json(const Event& e) {
  std::ostringstream os;
  os << "{\"t_ps\":" << e.at.ps() << ",\"source\":\"" << to_string(e.source)
     << "\",\"kind\":\"" << to_string(e.kind) << '"';
  for_each_field(e, [&](const auto& p, const auto& f) { put_json(os, p, f); });
  os << '}';
  return os.str();
}

}  // namespace lamsdlc::obs
