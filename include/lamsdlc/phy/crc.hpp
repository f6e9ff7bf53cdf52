#pragma once
/// \file crc.hpp
/// \brief CRC-16/CCITT and CRC-32 (IEEE 802.3) frame check sequences.
///
/// The paper's link model (assumption 9) treats frame loss as a detectable
/// error with no undetected CRC violations.  The frame codecs append a real
/// FCS so the byte-level encode/decode path is faithful to an HDLC-style
/// implementation; the simulator additionally marks corrupted frames so that
/// assumption 9 (no undetected errors) holds by construction.

#include <cstddef>
#include <cstdint>
#include <span>

namespace lamsdlc::phy {

/// CRC-16/CCITT-FALSE: poly 0x1021, init 0xFFFF, no reflection, no xor-out.
[[nodiscard]] std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data) noexcept;

/// CRC-32 (IEEE 802.3): poly 0x04C11DB7 reflected, init/xor-out 0xFFFFFFFF.
[[nodiscard]] std::uint32_t crc32_ieee(std::span<const std::uint8_t> data) noexcept;

/// \name Reference implementations
/// The original one-byte-per-step loops, kept as the differential-test
/// oracle: the fast paths above must agree with these on every input (see
/// tests/phy/test_crc.cpp).  Never called on the frame hot path.
/// @{
[[nodiscard]] std::uint16_t crc16_ccitt_bytewise(
    std::span<const std::uint8_t> data) noexcept;
[[nodiscard]] std::uint32_t crc32_ieee_bytewise(
    std::span<const std::uint8_t> data) noexcept;
/// @}

/// The portable slice-by-8 CRC-16.  crc16_ccitt() uses it for inputs under
/// 64 bytes and on hosts without the carry-less-multiply kernel; exported so
/// the differential tests cover it on hosts where that kernel runs as well.
[[nodiscard]] std::uint16_t crc16_ccitt_sliced(
    std::span<const std::uint8_t> data) noexcept;

/// Human-readable name of the backend crc16_ccitt() and crc32_ieee() run on
/// this host (for bench output and docs): "pclmul-fold (crc16) + slice-by-8
/// (crc32)" on x86-64 CPUs with PCLMULQDQ, "slice-by-8 (crc16) + armv8 crc32
/// (crc32)" on AArch64 builds with the CRC extension, otherwise "slice-by-8"
/// ("bytewise (big-endian host)" on big-endian hosts).
[[nodiscard]] const char* crc_backend() noexcept;

}  // namespace lamsdlc::phy
