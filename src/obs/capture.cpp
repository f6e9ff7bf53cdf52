#include "lamsdlc/obs/capture.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>

namespace lamsdlc::obs {
namespace {

// --- LEB128 varints -------------------------------------------------------

void put_varint(std::ostream& os, std::uint64_t v) {
  while (v >= 0x80) {
    os.put(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  os.put(static_cast<char>(v));
}

std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

void put_svarint(std::ostream& os, std::int64_t v) {
  put_varint(os, zigzag(v));
}

void put_u8(std::ostream& os, std::uint8_t v) {
  os.put(static_cast<char>(v));
}

void put_u16le(std::ostream& os, std::uint16_t v) {
  os.put(static_cast<char>(v & 0xFF));
  os.put(static_cast<char>(v >> 8));
}

void put_u64le(std::ostream& os, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    os.put(static_cast<char>(v & 0xFF));
    v >>= 8;
  }
}

/// Stateful decoder: any read past EOF or malformed varint sets `err`.
struct Decoder {
  std::istream& is;
  std::string err;

  [[nodiscard]] bool ok() const noexcept { return err.empty(); }

  void fail(const char* what, const char* field, unsigned value) {
    if (err.empty()) {
      err = std::string{what} + ' ' + field + ' ' + std::to_string(value);
    }
  }

  /// Returns -1 at EOF *before* any byte of the current record (clean end).
  int peek_byte() { return is.peek(); }

  std::uint8_t u8(const char* what) {
    const int c = is.get();
    if (c == std::istream::traits_type::eof()) {
      if (err.empty()) err = std::string{"truncated record: "} + what;
      return 0;
    }
    return static_cast<std::uint8_t>(c);
  }

  std::uint64_t varint(const char* what) {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      const int c = is.get();
      if (c == std::istream::traits_type::eof()) {
        if (err.empty()) err = std::string{"truncated varint: "} + what;
        return 0;
      }
      const auto byte = static_cast<std::uint8_t>(c);
      if (shift >= 63 && (byte & 0x7F) > 1) {
        if (err.empty()) err = std::string{"varint overflow: "} + what;
        return 0;
      }
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
    }
  }

  std::int64_t svarint(const char* what) { return unzigzag(varint(what)); }

  std::uint16_t u16le(const char* what) {
    const std::uint16_t lo = u8(what);
    const std::uint16_t hi = u8(what);
    return static_cast<std::uint16_t>(lo | (hi << 8));
  }

  std::uint64_t u64le(const char* what) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(u8(what)) << (8 * i);
    }
    return v;
  }
};

/// Writes one payload field, as its encoding says.
template <class P, class M, class W>
void put_field(std::ostream& os, const P& p, const Field<P, M, W>& f) {
  const M& v = p.*f.member;
  if constexpr (std::is_same_v<W, wire::Varint>) {
    put_varint(os, v);
  } else if constexpr (std::is_same_v<W, wire::Svarint>) {
    put_svarint(os, v);
  } else if constexpr (std::is_same_v<W, wire::F64>) {
    put_u64le(os, std::bit_cast<std::uint64_t>(v));
  } else if constexpr (std::is_same_v<W, wire::Text>) {
    std::string_view s{v.data(), v.size()};
    s = s.substr(0, s.find('\0'));
    put_u8(os, static_cast<std::uint8_t>(s.size()));
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
  } else if constexpr (wire::is_counted_by<W>) {
    const std::size_t n = std::min<std::size_t>(p.*f.wire.count, v.size());
    for (std::size_t i = 0; i < n; ++i) put_varint(os, v[i]);
  } else {
    put_u8(os, static_cast<std::uint8_t>(v));  // every one-byte encoding
  }
}

/// Reads one payload field, as its encoding says.
template <class P, class M, class W>
void get_field(Decoder& d, P& p, const Field<P, M, W>& f) {
  M& v = p.*f.member;
  if constexpr (std::is_same_v<W, wire::Varint>) {
    v = static_cast<M>(d.varint(f.key));
  } else if constexpr (std::is_same_v<W, wire::Svarint>) {
    v = d.svarint(f.key);
  } else if constexpr (std::is_same_v<W, wire::F64>) {
    v = std::bit_cast<double>(d.u64le(f.key));
  } else if constexpr (std::is_same_v<W, wire::Text>) {
    const std::uint8_t len = d.u8(f.key);
    if (len >= v.size()) return d.fail("bad length of", f.key, len);
    v = {};
    for (std::uint8_t i = 0; i < len; ++i) {
      v[i] = static_cast<char>(d.u8(f.key));
    }
  } else if constexpr (wire::is_counted_by<W>) {
    const std::size_t n = std::min<std::size_t>(p.*f.wire.count, v.size());
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<typename M::value_type>(d.varint(f.key));
    }
  } else if constexpr (std::is_same_v<W, wire::Enum>) {
    const std::uint8_t b = d.u8(f.key);
    if (b >= f.wire.count) return d.fail("bad", f.key, b);
    v = static_cast<M>(b);
  } else {
    v = d.u8(f.key);
  }
}

}  // namespace

CaptureWriter::CaptureWriter(std::ostream& os) : os_{os} {
  os_.write(reinterpret_cast<const char*>(kCaptureMagic),
            sizeof(kCaptureMagic));
  put_u16le(os_, kCaptureVersion);
  put_u16le(os_, 0);  // reserved
}

void CaptureWriter::write(const Event& e) {
  put_svarint(os_, e.at.ps() - last_ps_);
  last_ps_ = e.at.ps();
  put_u8(os_, static_cast<std::uint8_t>(e.source));
  put_u8(os_, static_cast<std::uint8_t>(e.kind));
  for_each_field(e,
                 [&](const auto& p, const auto& f) { put_field(os_, p, f); });
  ++written_;
}

CaptureReader::CaptureReader(std::istream& is) : is_{is} {
  std::uint8_t magic[sizeof(kCaptureMagic)] = {};
  is_.read(reinterpret_cast<char*>(magic), sizeof(magic));
  if (is_.gcount() != sizeof(magic) ||
      std::memcmp(magic, kCaptureMagic, sizeof(magic)) != 0) {
    error_ = "not a .ldlcap file (bad magic)";
    return;
  }
  Decoder d{is_, {}};
  version_ = d.u16le("header.version");
  d.u16le("header.reserved");
  if (!d.ok()) {
    error_ = d.err;
    return;
  }
  if (version_ < kCaptureOldestReadable || version_ > kCaptureVersion) {
    error_ = "unsupported capture version " + std::to_string(version_);
  }
}

std::optional<Event> CaptureReader::next() {
  if (!ok()) return std::nullopt;
  Decoder d{is_, {}};
  if (d.peek_byte() == std::istream::traits_type::eof()) {
    return std::nullopt;  // clean end of stream
  }
  Event e;
  e.at = Time::picoseconds(last_ps_ + d.svarint("record.delta"));
  const std::uint8_t source = d.u8("record.source");
  const std::uint8_t kind = d.u8("record.kind");
  if (!d.ok()) {
    error_ = d.err;
    return std::nullopt;
  }
  if (source >= kSourceCount) {
    error_ = "bad source tag " + std::to_string(source);
    return std::nullopt;
  }
  // A file may only contain kinds its header version knew about; v1 ended at
  // kRecoveryTransition (14), v2 at kMetricSample (18).
  const std::uint8_t kind_limit = version_ == 1   ? 15
                                  : version_ == 2 ? 19
                                                  : kEventKindCount;
  if (kind >= kind_limit) {
    error_ = "bad event kind " + std::to_string(kind);
    return std::nullopt;
  }
  e.source = static_cast<Source>(source);
  e.kind = static_cast<EventKind>(kind);
  for_each_field(e, [&](auto& p, const auto& f) {
    if (d.ok()) get_field(d, p, f);
  });
  if (!d.ok()) {
    error_ = d.err;
    return std::nullopt;
  }
  last_ps_ = e.at.ps();
  ++read_;
  return e;
}

std::optional<std::vector<Event>> read_capture(std::istream& is,
                                               std::string* error) {
  CaptureReader reader{is};
  std::vector<Event> out;
  while (auto e = reader.next()) out.push_back(*e);
  if (!reader.ok()) {
    if (error != nullptr) *error = reader.error();
    return std::nullopt;
  }
  return out;
}

}  // namespace lamsdlc::obs
