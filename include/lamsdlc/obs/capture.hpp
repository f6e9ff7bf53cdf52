#pragma once
/// \file capture.hpp
/// \brief Binary event capture files (`.ldlcap`): write a run's typed event
/// stream to disk, read it back losslessly.
///
/// Format (all multi-byte integers little-endian; spec in
/// docs/OBSERVABILITY.md):
///
///   header   := magic[8] version:u16 reserved:u16
///   magic    := "LDLCAP\n\0"  (4C 44 4C 43 41 50 0A 00)
///   record   := delta:svarint source:u8 kind:u8 payload
///   svarint  := zigzag-encoded LEB128 varint
///
/// `delta` is the difference in picoseconds from the previous record's
/// timestamp (from 0 for the first record); simulation timestamps are
/// nondecreasing so deltas are tiny and varint-friendly, but the zigzag
/// encoding keeps the format correct for arbitrary streams.  The payload is
/// the kind's payload struct written field by field, in the order of its
/// `fields()` list (event.hpp); unknown kinds make a file unreadable, which
/// is why the kind enums are append-only and the header carries a schema
/// version.
///
/// Version history (readers accept every listed version — the kind enums are
/// append-only, so an older file simply never contains the newer kinds):
///   1  kFrameSent .. kRecoveryTransition (kinds 0-14)
///   2  adds kRetransmitMapped, kPacketAdmitted, kPacketDelivered,
///      kMetricSample (kinds 15-18) for trace reconstruction and sampled
///      metric time series
///   3  adds the self-stabilization kinds kSelfAuditFailed, kStateCorrupted,
///      kResyncInitiated, kResyncCompleted (kinds 19-22)
///
/// `CaptureWriter` is an `EventBus` subscriber in spirit: hand
/// `writer.subscriber()` to a bus (or call `write()` directly) and every
/// event becomes one record.  `CaptureReader` yields the identical `Event`
/// sequence — round-trip identity is asserted by tests/obs/test_capture.cpp.

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "lamsdlc/obs/bus.hpp"
#include "lamsdlc/obs/event.hpp"

namespace lamsdlc::obs {

/// Magic + version constants for the `.ldlcap` container.
inline constexpr std::uint8_t kCaptureMagic[8] = {'L', 'D', 'L', 'C',
                                                  'A', 'P', '\n', '\0'};
inline constexpr std::uint16_t kCaptureVersion = 3;
inline constexpr std::uint16_t kCaptureOldestReadable = 1;
inline constexpr std::size_t kCaptureHeaderSize = 12;

/// Serializes events to an `.ldlcap` stream.  The header is written on
/// construction; each `write()` appends one record.  The writer does not own
/// the stream.
class CaptureWriter {
 public:
  explicit CaptureWriter(std::ostream& os);

  CaptureWriter(const CaptureWriter&) = delete;
  CaptureWriter& operator=(const CaptureWriter&) = delete;

  void write(const Event& e);

  /// Records written so far.
  [[nodiscard]] std::uint64_t written() const noexcept { return written_; }

  /// Bus subscriber that forwards every event to `write()`.  The writer must
  /// outlive the subscription.
  [[nodiscard]] EventBus::Subscriber subscriber() {
    return [this](const Event& e) { write(e); };
  }

 private:
  std::ostream& os_;
  std::int64_t last_ps_{0};
  std::uint64_t written_{0};
};

/// Deserializes an `.ldlcap` stream.  Construction validates the header;
/// `next()` yields events until end-of-stream.  Any malformed byte flips
/// `ok()` to false with a diagnostic in `error()` (truncated files are an
/// error, not a silent EOF).
class CaptureReader {
 public:
  explicit CaptureReader(std::istream& is);

  CaptureReader(const CaptureReader&) = delete;
  CaptureReader& operator=(const CaptureReader&) = delete;

  /// Next event, or nullopt at clean end-of-stream / on error.
  [[nodiscard]] std::optional<Event> next();

  [[nodiscard]] bool ok() const noexcept { return error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] std::uint16_t version() const noexcept { return version_; }
  [[nodiscard]] std::uint64_t read_count() const noexcept { return read_; }

 private:
  std::istream& is_;
  std::string error_;
  std::uint16_t version_{0};
  std::int64_t last_ps_{0};
  std::uint64_t read_{0};
};

/// Read every event in \p is.  Returns nullopt (with \p error filled, if
/// given) when the stream is not a well-formed capture.
[[nodiscard]] std::optional<std::vector<Event>> read_capture(
    std::istream& is, std::string* error = nullptr);

}  // namespace lamsdlc::obs
