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
///
/// Each payload struct describes its layout once, in `fields()`: member,
/// JSON key and wire encoding per field, in record order.  Payload equality
/// is the defaulted member-wise `==`; the capture writer and reader
/// (capture.cpp) and `to_json` walk the field lists, and `visit_payload` is
/// the one mapping from kind to payload.  Adding a field is one list entry
/// plus a `kCaptureVersion` bump; a member missing from its list fails the
/// build (`field_list_complete`).

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>

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

/// Field encodings: how a payload field is stored in a capture record and
/// shown in JSON.  Every one-byte encoding is a plain u8 on the wire.
namespace wire {
struct Varint {};   ///< LEB128; JSON number.
struct Svarint {};  ///< Zigzag LEB128; JSON number.
struct F64 {};      ///< IEEE-754 bits as u64 little-endian; JSON number.
struct Text {};     ///< u8 length + bytes of a NUL-padded array; JSON string.
struct Byte {};     ///< u8; JSON number.
struct Bool {};     ///< u8; JSON true/false (nonzero is true).
/// u8 below `count` (the decoder rejects the rest); JSON `to_string` name.
struct Enum {
  std::uint8_t count;
};
/// u8; JSON `zero` for 0, `nonzero` otherwise.
struct Choice {
  const char* zero;
  const char* nonzero;
};
/// u8 bit set; JSON one bool per named bit (bit i = names[i]), no own key.
struct Bits {
  const char* names[8];
};
/// Array whose first min(p.*count, size) entries are varints; JSON array.
template <class P, class N>
struct CountedBy {
  N P::*count;
};
template <class W>
inline constexpr bool is_counted_by = false;
template <class P, class N>
inline constexpr bool is_counted_by<CountedBy<P, N>> = true;
}  // namespace wire

/// One entry of a payload's field list.
template <class P, class M, class W>
struct Field {
  M P::*member;
  const char* key;  ///< JSON key (also names the field in decode errors).
  W wire;
};

/// kFrameSent / kFrameReceived / kFrameReleased / kRetransmitQueued /
/// kPacketAdmitted (ctr 0, nothing transmitted yet) / kPacketDelivered.
struct FramePayload {
  std::uint64_t ctr = 0;        ///< Unwrapped sequence counter (token for control).
  std::uint64_t packet_id = 0;  ///< Simulation-side identity (0 for control).
  std::uint32_t attempt = 0;    ///< Transmission attempt, 1-based (tx only).
  std::uint8_t control = 0;     ///< 1 when the frame is a control command.
  std::int64_t holding_ps = 0;  ///< kFrameReleased: first tx → release.

  bool operator==(const FramePayload&) const = default;
  static constexpr auto fields() {
    using P = FramePayload;
    return std::tuple{Field{&P::ctr, "ctr", wire::Varint{}},
                      Field{&P::packet_id, "packet_id", wire::Varint{}},
                      Field{&P::attempt, "attempt", wire::Varint{}},
                      Field{&P::control, "control", wire::Bool{}},
                      Field{&P::holding_ps, "holding_ps", wire::Svarint{}}};
  }
};

/// kFrameCorrupted / kFrameDropped / kFrameDuplicated / kFrameDelayed.
struct DropPayload {
  DropCause cause = DropCause::kWireCorruption;
  std::uint8_t control = 0;  ///< 1 when the frame is a control command.
  std::uint64_t ctr = 0;     ///< Wire sequence if known, else 0.

  bool operator==(const DropPayload&) const = default;
  static constexpr auto fields() {
    using P = DropPayload;
    return std::tuple{Field{&P::cause, "cause", wire::Enum{kDropCauseCount}},
                      Field{&P::control, "control", wire::Bool{}},
                      Field{&P::ctr, "ctr", wire::Varint{}}};
  }
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

  bool operator==(const CheckpointPayload&) const = default;
  static constexpr auto fields() {
    using P = CheckpointPayload;
    return std::tuple{
        Field{&P::cp_seq, "cp_seq", wire::Varint{}},
        Field{&P::highest_seen, "highest_seen", wire::Varint{}},
        Field{&P::missed, "missed", wire::Varint{}},
        Field{&P::nak_count, "nak_count", wire::Varint{}},
        Field{&P::flags, "flags",
              wire::Bits{{"any_seen", "enforced", "stop_go", "resync_req"}}},
        Field{&P::naks, "naks", wire::CountedBy{&P::nak_count}}};
  }
};

/// kNakGenerated.
struct NakPayload {
  std::uint64_t ctr = 0;  ///< Unwrapped counter of the damaged frame.

  bool operator==(const NakPayload&) const = default;
  static constexpr auto fields() {
    return std::tuple{Field{&NakPayload::ctr, "ctr", wire::Varint{}}};
  }
};

/// kBufferOccupancy.
struct BufferPayload {
  BufferId which = BufferId::kSendBuffer;
  std::uint32_t depth = 0;  ///< Occupancy in frames after the change.

  bool operator==(const BufferPayload&) const = default;
  static constexpr auto fields() {
    using P = BufferPayload;
    return std::tuple{Field{&P::which, "buffer", wire::Enum{kBufferIdCount}},
                      Field{&P::depth, "depth", wire::Varint{}}};
  }
};

/// kTimerArmed / kTimerFired.
struct TimerPayload {
  TimerId timer = TimerId::kCheckpointTimer;
  std::int64_t deadline_ps = 0;  ///< Armed only: absolute expiry instant.

  bool operator==(const TimerPayload&) const = default;
  static constexpr auto fields() {
    using P = TimerPayload;
    return std::tuple{Field{&P::timer, "timer", wire::Enum{kTimerIdCount}},
                      Field{&P::deadline_ps, "deadline_ps", wire::Svarint{}}};
  }
};

/// kRecoveryTransition.
struct RecoveryPayload {
  SenderMode from = SenderMode::kNormal;
  SenderMode to = SenderMode::kNormal;
  RecoveryReason reason = RecoveryReason::kCheckpointSilence;

  bool operator==(const RecoveryPayload&) const = default;
  static constexpr auto fields() {
    using P = RecoveryPayload;
    return std::tuple{
        Field{&P::from, "from", wire::Enum{kSenderModeCount}},
        Field{&P::to, "to", wire::Enum{kSenderModeCount}},
        Field{&P::reason, "reason", wire::Enum{kRecoveryReasonCount}}};
  }
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

  bool operator==(const RetransmitMapPayload&) const = default;
  static constexpr auto fields() {
    using P = RetransmitMapPayload;
    return std::tuple{Field{&P::old_ctr, "old_ctr", wire::Varint{}},
                      Field{&P::new_ctr, "new_ctr", wire::Varint{}},
                      Field{&P::packet_id, "packet_id", wire::Varint{}},
                      Field{&P::attempt, "attempt", wire::Varint{}}};
  }
};

/// kSelfAuditFailed: one tripped check with two check-specific detail values
/// (e.g. the offending counter and the bound it violated).
struct AuditPayload {
  AuditCheck check = AuditCheck::kSenderCtrCoherence;
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  bool operator==(const AuditPayload&) const = default;
  static constexpr auto fields() {
    using P = AuditPayload;
    return std::tuple{Field{&P::check, "check", wire::Enum{kAuditCheckCount}},
                      Field{&P::a, "a", wire::Varint{}},
                      Field{&P::b, "b", wire::Varint{}}};
  }
};

/// kStateCorrupted: a harness-injected corruption (verif::StateCorruptor).
/// `cls` is the verif::CorruptionClass on-disk value; `target` is 0 for the
/// sender, 1 for the receiver; a/b carry the class-specific magnitudes.
struct CorruptionPayload {
  std::uint8_t cls = 0;
  std::uint8_t target = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  bool operator==(const CorruptionPayload&) const = default;
  static constexpr auto fields() {
    using P = CorruptionPayload;
    return std::tuple{
        Field{&P::cls, "class", wire::Byte{}},
        Field{&P::target, "target", wire::Choice{"sender", "receiver"}},
        Field{&P::a, "a", wire::Varint{}}, Field{&P::b, "b", wire::Varint{}}};
  }
};

/// kResyncInitiated / kResyncCompleted.
struct ResyncPayload {
  std::uint32_t token = 0;
  std::uint32_t epoch = 0;
  std::uint32_t attempt = 0;  ///< RESYNC transmissions so far this episode.
  RecoveryReason reason = RecoveryReason::kSelfAuditFailure;

  bool operator==(const ResyncPayload&) const = default;
  static constexpr auto fields() {
    using P = ResyncPayload;
    return std::tuple{
        Field{&P::token, "token", wire::Varint{}},
        Field{&P::epoch, "epoch", wire::Varint{}},
        Field{&P::attempt, "attempt", wire::Varint{}},
        Field{&P::reason, "reason", wire::Enum{kRecoveryReasonCount}}};
  }
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

  bool operator==(const MetricSamplePayload&) const = default;
  static constexpr auto fields() {
    using P = MetricSamplePayload;
    return std::tuple{Field{&P::name, "name", wire::Text{}},
                      Field{&P::value, "value", wire::F64{}},
                      Field{&P::is_counter, "is_counter", wire::Bool{}}};
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
    /// Starts the largest member, so a fresh event reads zero through every
    /// payload (and inline NAKs past the count compare equal).
    constexpr Payload() noexcept : sample{} {}
  } p;
};
static_assert(sizeof(MetricSamplePayload) == sizeof(Event::Payload));

/// The one mapping from kind to payload: calls \p fn with a pointer to the
/// `Event::Payload` member that \p kind carries (not at all for a value
/// outside the enum).  Equality, the capture codec and `to_json` reach
/// payloads only through here.
template <class Fn>
constexpr void visit_payload(EventKind kind, Fn&& fn) {
  using P = Event::Payload;
  switch (kind) {
    case EventKind::kFrameSent:
    case EventKind::kFrameReceived:
    case EventKind::kFrameReleased:
    case EventKind::kRetransmitQueued:
    case EventKind::kPacketAdmitted:
    case EventKind::kPacketDelivered: return fn(&P::frame);
    case EventKind::kFrameCorrupted:
    case EventKind::kFrameDropped:
    case EventKind::kFrameDuplicated:
    case EventKind::kFrameDelayed: return fn(&P::drop);
    case EventKind::kCheckpointEmitted:
    case EventKind::kCheckpointProcessed: return fn(&P::checkpoint);
    case EventKind::kNakGenerated: return fn(&P::nak);
    case EventKind::kBufferOccupancy: return fn(&P::buffer);
    case EventKind::kTimerArmed:
    case EventKind::kTimerFired: return fn(&P::timer);
    case EventKind::kRecoveryTransition: return fn(&P::recovery);
    case EventKind::kRetransmitMapped: return fn(&P::map);
    case EventKind::kMetricSample: return fn(&P::sample);
    case EventKind::kSelfAuditFailed: return fn(&P::audit);
    case EventKind::kStateCorrupted: return fn(&P::corruption);
    case EventKind::kResyncInitiated:
    case EventKind::kResyncCompleted: return fn(&P::resync);
  }
}

namespace detail {
/// Converts to any member type, so counting how many of these an aggregate
/// accepts as initializers counts its members.
struct AnyMember {
  template <class T>
  operator T() const;
};
template <class T, class... Probe>
constexpr std::size_t member_count() {
  if constexpr (requires { T{Probe{}..., AnyMember{}}; }) {
    return member_count<T, Probe..., AnyMember>();
  } else {
    return sizeof...(Probe);
  }
}
}  // namespace detail

/// True when every data member of payload \p P has an entry in `P::fields()`.
template <class P>
constexpr bool field_list_complete() {
  return detail::member_count<P>() == std::tuple_size_v<decltype(P::fields())>;
}

/// Calls `fn(payload, field)` for each entry of the field list of the
/// payload \p e carries, in record order.  \p E is `Event` or `const Event`.
template <class E, class Fn>
constexpr void for_each_field(E& e, Fn&& fn) {
  visit_payload(e.kind, [&](auto member) {
    auto& p = e.p.*member;
    using P = std::remove_cvref_t<decltype(p)>;
    static_assert(field_list_complete<P>(),
                  "a payload member is missing from its field list");
    std::apply([&](const auto&... f) { (fn(p, f), ...); }, P::fields());
  });
}

/// Member-wise equality of the active payload (padding-safe; never memcmp).
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
