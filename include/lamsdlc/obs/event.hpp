#pragma once
/// \file event.hpp
/// \brief Typed protocol events.
///
/// Every observable protocol occurrence is an `Event`: a kind tag, the
/// emitting source, the simulation instant, and a small POD payload in a
/// tagged union.  Events are what the `EventBus` dispatches, what the
/// `Registry` collector aggregates into metrics, and what capture files
/// (`capture.hpp`) persist record-for-record, so the taxonomy below *is* the
/// observability schema (documented in docs/OBSERVABILITY.md; extend it only
/// by appending enumerators — capture files encode these values on disk).
///
/// Payloads are deliberately fixed-size: a checkpoint's NAK list is stored
/// as its exact count plus the first `kMaxInlineNaks` entries.  That keeps
/// `Event` trivially copyable and capture records compact while preserving
/// the quantities the analyses need (how *many* NAKs, and which frames lead
/// the list).

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "lamsdlc/core/time.hpp"

namespace lamsdlc::obs {

/// Emitting component.  On-disk value; append only.
enum class Source : std::uint8_t {
  kLamsSender = 0,
  kLamsReceiver = 1,
  kLinkForward = 2,
  kLinkReverse = 3,
  kOther = 4,
};
inline constexpr std::uint8_t kSourceCount = 5;

/// What happened.  On-disk value; append only.
enum class EventKind : std::uint8_t {
  kFrameSent = 0,       ///< Endpoint put a frame on the wire (I-frame or control).
  kFrameReceived = 1,   ///< Receiver accepted a good I-frame for delivery.
  kFrameReleased = 2,   ///< Sender released a held frame (implicit ack).
  kRetransmitQueued = 3,///< Sender queued a frame for renumbered retransmission.
  kFrameCorrupted = 4,  ///< A frame was damaged in flight / arrived unreadable.
  kFrameDropped = 5,    ///< A frame will never be delivered (see DropCause).
  kFrameDuplicated = 6, ///< A fault stage injected an extra copy.
  kFrameDelayed = 7,    ///< A fault stage jittered delivery (reordering).
  kCheckpointEmitted = 8,   ///< Receiver sent a Check-Point / Enforced-NAK.
  kCheckpointProcessed = 9, ///< Sender accepted a checkpoint.
  kNakGenerated = 10,   ///< Receiver detected a sequence gap (one NAK).
  kBufferOccupancy = 11,///< A send/receive buffer changed depth.
  kTimerArmed = 12,     ///< A protocol timer was (re)armed.
  kTimerFired = 13,     ///< A protocol timer expired.
  kRecoveryTransition = 14, ///< Sender mode change (normal/enforced/failed).
  kRetransmitMapped = 15,   ///< Sender renumbered a claimed frame (old -> new ctr).
  kPacketAdmitted = 16,     ///< Sender accepted a packet into the sending buffer.
  kPacketDelivered = 17,    ///< Receiver handed a packet to the client (after t_proc).
  kMetricSample = 18,       ///< Sampler snapshot of one registry counter/gauge.
  kSelfAuditFailed = 19,    ///< A runtime self-audit invariant check tripped.
  kStateCorrupted = 20,     ///< Harness injected a state corruption (verif).
  kResyncInitiated = 21,    ///< Sender started a RESYNC handshake.
  kResyncCompleted = 22,    ///< RESYNC applied (receiver) / acknowledged (sender).
};
inline constexpr std::uint8_t kEventKindCount = 23;

/// Why a frame was dropped/corrupted.  On-disk value; append only.
enum class DropCause : std::uint8_t {
  kWireCorruption = 0,  ///< Channel error process damaged the frame.
  kFaultDrop = 1,       ///< Fault stage: silent omission.
  kFaultTruncation = 2, ///< Fault stage: header damage (unreadable husk).
  kFaultJitter = 3,     ///< Fault stage: delivery delayed (kFrameDelayed).
  kFaultDuplicate = 4,  ///< Fault stage: extra copy (kFrameDuplicated).
  kLinkDown = 5,        ///< Link was down (queued, in flight, or at send).
  kNoSink = 6,          ///< Channel had no attached receiver.
  kCongestion = 7,      ///< Receiver buffer at hard capacity (Section 3.4).
  kStaleSequence = 8,   ///< Non-monotone counter (wire dup / late reorder).
  kCorruptControl = 9,  ///< Damaged control command discarded at an endpoint.
};
inline constexpr std::uint8_t kDropCauseCount = 10;

/// Which protocol timer.  On-disk value; append only.
enum class TimerId : std::uint8_t {
  kCheckpointTimer = 0,   ///< Sender checkpoint-silence timer (C_depth · W_cp).
  kFailureTimer = 1,      ///< Sender failure timer (enforced recovery budget).
  kCheckpointCadence = 2, ///< Receiver periodic checkpoint tick.
  kResyncTimer = 3,       ///< Sender RESYNC retry (capped exponential backoff).
  kSelfAuditCadence = 4,  ///< Endpoint periodic self-audit tick.
  kWatchdogTimer = 5,     ///< Sender progress watchdog.
};
inline constexpr std::uint8_t kTimerIdCount = 6;

/// Sender mode, mirroring lams::LamsSender::Mode.  On-disk value.
enum class SenderMode : std::uint8_t {
  kNormal = 0,
  kEnforcedRecovery = 1,
  kFailed = 2,
  kResyncing = 3,
};
inline constexpr std::uint8_t kSenderModeCount = 4;

/// Why a recovery transition happened.  On-disk value; append only.
enum class RecoveryReason : std::uint8_t {
  kCheckpointSilence = 0,   ///< Checkpoint timer expired.
  kNakGapAmbiguity = 1,     ///< >= C_depth checkpoints missed: list inconclusive.
  kEnforcedNakResolved = 2, ///< Enforced-NAK ended the recovery.
  kFailureTimeout = 3,      ///< Failure timer expired: link declared failed.
  kLifetimeExhausted = 4,   ///< Remaining link lifetime below recovery budget.
  kSelfAuditFailure = 5,    ///< A local self-audit check tripped.
  kProgressWatchdog = 6,    ///< No release progress over a watchdog period.
  kResyncRequested = 7,     ///< Receiver set resync_req in a checkpoint.
  kImplausibleAck = 8,      ///< Streak of checkpoints acking unsent counters.
  kResyncExhausted = 9,     ///< RESYNC retries exhausted: link declared failed.
  kResyncCompleted = 10,    ///< RESYNC-ACK received: back to normal operation.
};
inline constexpr std::uint8_t kRecoveryReasonCount = 11;

/// Which runtime self-audit check tripped.  On-disk value; append only.
enum class AuditCheck : std::uint8_t {
  kSenderCtrCoherence = 0,      ///< In-flight slot counter >= next_ctr.
  kSenderWindowBound = 1,       ///< In-flight + retx beyond the numbering window.
  kSenderCpTracking = 2,        ///< Checkpoint-tracking flags inconsistent.
  kSenderTimerCoherence = 3,    ///< Enforced recovery without a failure timer.
  kSenderPacingStuck = 4,       ///< Pace gate implausibly far in the future.
  kReceiverAnchorCoherence = 5, ///< Cycle anchor beyond the arrival count.
  kReceiverSeqCoherence = 6,    ///< "Nothing seen" yet nonzero sequence state.
  kReceiverNakCoherence = 7,    ///< NAK record at/above the accepted highest.
  kReceiverHistoryOrder = 8,    ///< NAK history timestamps non-monotone.
  kReceiverHuskStall = 9,       ///< Unreadable-arrival burst past one modulus.
  kReceiverCadenceStall = 10,   ///< Link active but no checkpoint timer pending.
};
inline constexpr std::uint8_t kAuditCheckCount = 11;

/// Which buffer, for kBufferOccupancy.  On-disk value.
enum class BufferId : std::uint8_t {
  kSendBuffer = 0,
  kRecvBuffer = 1,
};
inline constexpr std::uint8_t kBufferIdCount = 2;

/// Checkpoint NAK entries stored inline in an event (the full count is
/// always carried; entries beyond this many are summarized by the count).
inline constexpr std::size_t kMaxInlineNaks = 8;

/// kFrameSent / kFrameReceived / kFrameReleased / kRetransmitQueued /
/// kPacketAdmitted (ctr 0, nothing transmitted yet) / kPacketDelivered.
struct FramePayload {
  std::uint64_t ctr = 0;        ///< Unwrapped sequence counter (token for control).
  std::uint64_t packet_id = 0;  ///< Simulation-side identity (0 for control).
  std::uint32_t attempt = 0;    ///< Transmission attempt, 1-based (tx only).
  std::uint8_t control = 0;     ///< 1 when the frame is a control command.
  std::int64_t holding_ps = 0;  ///< kFrameReleased: first tx → release.
};

/// kFrameCorrupted / kFrameDropped / kFrameDuplicated / kFrameDelayed.
struct DropPayload {
  DropCause cause = DropCause::kWireCorruption;
  std::uint8_t control = 0;  ///< 1 when the frame is a control command.
  std::uint64_t ctr = 0;     ///< Wire sequence if known, else 0.
};

/// kCheckpointEmitted / kCheckpointProcessed.
struct CheckpointPayload {
  std::uint32_t cp_seq = 0;
  std::uint32_t highest_seen = 0;
  std::uint32_t missed = 0;    ///< Processed only: checkpoints lost before this one.
  std::uint16_t nak_count = 0; ///< Full cumulative list length.
  std::uint8_t flags = 0;      ///< bit0 any_seen, bit1 enforced, bit2 stop_go,
                               ///< bit3 resync_req.
  std::array<std::uint32_t, kMaxInlineNaks> naks{};  ///< First entries of the list.

  [[nodiscard]] bool any_seen() const noexcept { return flags & 1u; }
  [[nodiscard]] bool enforced() const noexcept { return flags & 2u; }
  [[nodiscard]] bool stop_go() const noexcept { return flags & 4u; }
  [[nodiscard]] bool resync_req() const noexcept { return flags & 8u; }
  [[nodiscard]] std::size_t inline_naks() const noexcept {
    return nak_count < kMaxInlineNaks ? nak_count : kMaxInlineNaks;
  }
};

/// kNakGenerated.
struct NakPayload {
  std::uint64_t ctr = 0;  ///< Unwrapped counter of the damaged frame.
};

/// kBufferOccupancy.
struct BufferPayload {
  BufferId which = BufferId::kSendBuffer;
  std::uint32_t depth = 0;  ///< Occupancy in frames after the change.
};

/// kTimerArmed / kTimerFired.
struct TimerPayload {
  TimerId timer = TimerId::kCheckpointTimer;
  std::int64_t deadline_ps = 0;  ///< Armed only: absolute expiry instant.
};

/// kRecoveryTransition.
struct RecoveryPayload {
  SenderMode from = SenderMode::kNormal;
  SenderMode to = SenderMode::kNormal;
  RecoveryReason reason = RecoveryReason::kCheckpointSilence;
};

/// kRetransmitMapped: the renumbering pairing the trace reconstruction
/// follows.  Emitted immediately before the kFrameSent of the new copy, so a
/// capture file is self-describing about retransmission chains (the wire
/// itself never links old and new numbers — that is the point of the
/// protocol's relaxed in-sequence rule).
struct RetransmitMapPayload {
  std::uint64_t old_ctr = 0;   ///< Counter of the claimed (failed) copy.
  std::uint64_t new_ctr = 0;   ///< Fresh counter assigned to the retransmission.
  std::uint64_t packet_id = 0;
  std::uint32_t attempt = 0;   ///< Attempt number of the new copy (>= 2).
};

/// kSelfAuditFailed: one tripped check with two check-specific detail values
/// (e.g. the offending counter and the bound it violated).
struct AuditPayload {
  AuditCheck check = AuditCheck::kSenderCtrCoherence;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// kStateCorrupted: a harness-injected corruption (verif::StateCorruptor).
/// `cls` is the verif::CorruptionClass on-disk value; `target` is 0 for the
/// sender, 1 for the receiver; a/b carry the class-specific magnitudes.
struct CorruptionPayload {
  std::uint8_t cls = 0;
  std::uint8_t target = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// kResyncInitiated / kResyncCompleted.
struct ResyncPayload {
  std::uint32_t token = 0;
  std::uint32_t epoch = 0;
  std::uint32_t attempt = 0;  ///< RESYNC transmissions so far this episode.
  RecoveryReason reason = RecoveryReason::kSelfAuditFailure;
};

/// Metric-name capacity of a kMetricSample record; longer names truncate.
inline constexpr std::size_t kMetricNameCap = 48;

/// kMetricSample: one registry counter/gauge value snapshotted mid-run by
/// obs::Sampler, so captures carry a time series instead of only end totals.
struct MetricSamplePayload {
  std::array<char, kMetricNameCap> name{};  ///< NUL-terminated, truncated.
  double value = 0.0;
  std::uint8_t is_counter = 0;  ///< 1 = counter (monotone), 0 = gauge.

  void set_name(std::string_view n) noexcept {
    const std::size_t len = n.size() < kMetricNameCap - 1 ? n.size() : kMetricNameCap - 1;
    for (std::size_t i = 0; i < len; ++i) name[i] = n[i];
    for (std::size_t i = len; i < kMetricNameCap; ++i) name[i] = '\0';
  }
  [[nodiscard]] std::string_view name_view() const noexcept {
    std::size_t len = 0;
    while (len < kMetricNameCap && name[len] != '\0') ++len;
    return {name.data(), len};
  }
};

/// One observed protocol event.  Trivially copyable; the active union member
/// is determined by `kind` (see the per-kind comments above).
struct Event {
  Time at{};
  Source source = Source::kOther;
  EventKind kind = EventKind::kFrameSent;
  union Payload {
    FramePayload frame;
    DropPayload drop;
    CheckpointPayload checkpoint;
    NakPayload nak;
    BufferPayload buffer;
    TimerPayload timer;
    RecoveryPayload recovery;
    RetransmitMapPayload map;
    MetricSamplePayload sample;
    AuditPayload audit;
    CorruptionPayload corruption;
    ResyncPayload resync;
    constexpr Payload() noexcept : frame{} {}
  } p;
};

/// Field-wise equality of the active payload (padding-safe; never memcmp).
[[nodiscard]] bool operator==(const Event& a, const Event& b) noexcept;

/// \name Enum names (stable lowercase identifiers, used by the CLI filters)
/// @{
[[nodiscard]] const char* to_string(EventKind k) noexcept;
[[nodiscard]] const char* to_string(Source s) noexcept;
[[nodiscard]] const char* to_string(DropCause c) noexcept;
[[nodiscard]] const char* to_string(TimerId t) noexcept;
[[nodiscard]] const char* to_string(SenderMode m) noexcept;
[[nodiscard]] const char* to_string(RecoveryReason r) noexcept;
[[nodiscard]] const char* to_string(BufferId b) noexcept;
[[nodiscard]] const char* to_string(AuditCheck c) noexcept;
[[nodiscard]] std::optional<EventKind> kind_from_string(std::string_view name) noexcept;
[[nodiscard]] std::optional<Source> source_from_string(std::string_view name) noexcept;
/// @}

/// Human-readable one-liner ("iframe tx ctr=17 pkt=4 attempt=2") — what
/// `lamsdlc_cli inspect` and the `protocol_trace` example print.
[[nodiscard]] std::string describe(const Event& e);

/// One JSON object (single line, no trailing newline) for external tooling.
[[nodiscard]] std::string to_json(const Event& e);

}  // namespace lamsdlc::obs
