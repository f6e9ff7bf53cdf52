#include "lamsdlc/phy/crc.hpp"

#include <gtest/gtest.h>

#include <array>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "lamsdlc/core/random.hpp"

namespace lamsdlc::phy {
namespace {

std::vector<std::uint8_t> bytes(std::string_view s) {
  return {s.begin(), s.end()};
}

// Standard check value: CRC-16/CCITT-FALSE("123456789") = 0x29B1.
TEST(Crc16, StandardCheckValue) {
  EXPECT_EQ(crc16_ccitt(bytes("123456789")), 0x29B1);
}

// Standard check value: CRC-32/IEEE("123456789") = 0xCBF43926.
TEST(Crc32, StandardCheckValue) {
  EXPECT_EQ(crc32_ieee(bytes("123456789")), 0xCBF43926u);
}

TEST(Crc16, EmptyInput) { EXPECT_EQ(crc16_ccitt({}), 0xFFFF); }

TEST(Crc32, EmptyInput) { EXPECT_EQ(crc32_ieee({}), 0x00000000u); }

TEST(Crc16, SingleBitFlipChangesChecksum) {
  auto data = bytes("The LAMS-DLC ARQ Protocol");
  const auto base = crc16_ccitt(data);
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(crc16_ccitt(data), base)
          << "undetected flip at byte " << byte << " bit " << bit;
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

TEST(Crc32, SingleBitFlipChangesChecksum) {
  auto data = bytes("low earth orbit satellite network");
  const auto base = crc32_ieee(data);
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    data[byte] ^= 0x01;
    EXPECT_NE(crc32_ieee(data), base);
    data[byte] ^= 0x01;
  }
}

TEST(Crc16, DistinctForSwappedBytes) {
  const auto a = crc16_ccitt(bytes("ab"));
  const auto b = crc16_ccitt(bytes("ba"));
  EXPECT_NE(a, b);
}

TEST(Crc16, DeterministicAcrossCalls) {
  const auto data = bytes("determinism");
  EXPECT_EQ(crc16_ccitt(data), crc16_ccitt(data));
}

TEST(Crc32, LongInput) {
  std::vector<std::uint8_t> data(100'000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  const auto c = crc32_ieee(data);
  data[50'000] ^= 0x80;
  EXPECT_NE(crc32_ieee(data), c);
}

// ------------------------------------------------------------ differential --
//
// The fast paths must be bit-identical to the bytewise reference for every
// buffer shape.  crc16_ccitt() dispatches inputs of 64 bytes or more to a
// carry-less-multiply folding kernel on x86-64 CPUs with PCLMULQDQ, so the
// slice-by-8 loop it otherwise uses is checked directly as well
// (crc16_ccitt_sliced); CRC-32 runs slice-by-8, or the ARM hardware CRC32
// where compiled in.  Each path has distinct code for the head, the
// steady-state loop and the tail, and every one of them has to agree with
// the oracle.

std::vector<std::uint8_t> random_buffer(std::size_t n, std::uint64_t seed) {
  RandomStream rng{seed, "test.crc.diff"};
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return out;
}

// Every fast path against its oracle on one buffer; `where` names the case.
void expect_matches_oracle(std::span<const std::uint8_t> s,
                           const std::string& where) {
  const std::uint16_t want16 = crc16_ccitt_bytewise(s);
  EXPECT_EQ(crc16_ccitt(s), want16) << where;
  EXPECT_EQ(crc16_ccitt_sliced(s), want16) << where;
  EXPECT_EQ(crc32_ieee(s), crc32_ieee_bytewise(s)) << where;
}

TEST(CrcDifferential, EmptyMatchesOracle) {
  expect_matches_oracle({}, "empty");
}

TEST(CrcDifferential, EverySingleByteValueMatchesOracle) {
  for (int v = 0; v < 256; ++v) {
    const std::array<std::uint8_t, 1> one{static_cast<std::uint8_t>(v)};
    expect_matches_oracle(one, "byte " + std::to_string(v));
  }
}

// Every length 0..1024 at every base offset 0..15.  For the 8-byte slices
// that is every tail remainder; for the fold kernel it is the table fallback
// below 64 bytes, the 64-byte prologue alone, every count of 4-lane steps,
// every number of 16-byte cleanup blocks and every tail length, each from a
// base pointer at every alignment mod 16.
TEST(CrcDifferential, AllShortLengthsMatchOracle) {
  const auto data = random_buffer(1024 + 16, 11);
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const std::span<const std::uint8_t> s{data.data() + off, len};
      expect_matches_oracle(s, "off " + std::to_string(off) + " len " +
                                   std::to_string(len));
    }
  }
}

// Unaligned head and tail: sub-spans starting at every offset 0..15 with
// lengths that leave every tail remainder, over a buffer big enough that the
// steady-state loops run many times.
TEST(CrcDifferential, UnalignedHeadAndTailMatchOracle) {
  const auto data = random_buffer(4096 + 32, 12);
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t chop = 0; chop < 16; ++chop) {
      const std::span<const std::uint8_t> s{data.data() + off,
                                            data.size() - off - chop};
      expect_matches_oracle(s, "off " + std::to_string(off) + " chop " +
                                   std::to_string(chop));
    }
  }
}

// The bodies the frame codec checksums on the benchmarked links: a 9-byte
// I-frame header (kind, seq, payload length) plus a 1 KiB or 8 KiB payload.
TEST(CrcDifferential, BenchmarkFrameBodiesMatchOracle) {
  const auto data = random_buffer(9 + 8192 + 16, 13);
  for (const std::size_t len : {9 + 1024, 9 + 8192}) {
    for (std::size_t off = 0; off < 16; ++off) {
      const std::span<const std::uint8_t> s{data.data() + off, len};
      expect_matches_oracle(s, "off " + std::to_string(off) + " len " +
                                   std::to_string(len));
    }
  }
}

TEST(CrcDifferential, Random64KBuffersMatchOracle) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    expect_matches_oracle(random_buffer(64 * 1024, seed),
                          "seed " + std::to_string(seed));
  }
}

// Known-answer vectors beyond the "123456789" check value, so the oracle
// itself is pinned against published constants rather than only against the
// fast path it exists to check.
TEST(CrcDifferential, KnownAnswerVectors) {
  // CRC-16/CCITT-FALSE: check("123456789") = 0x29B1, empty = init = 0xFFFF.
  EXPECT_EQ(crc16_ccitt_bytewise(bytes("123456789")), 0x29B1);
  EXPECT_EQ(crc16_ccitt_bytewise({}), 0xFFFF);
  EXPECT_EQ(crc16_ccitt_bytewise(bytes("A")), 0xB915);
  // CRC-32/IEEE (zlib crc32): check("123456789") = 0xCBF43926, empty = 0.
  EXPECT_EQ(crc32_ieee_bytewise(bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32_ieee_bytewise({}), 0x00000000u);
  EXPECT_EQ(crc32_ieee_bytewise(bytes("a")), 0xE8B7BE43u);
  EXPECT_EQ(crc32_ieee_bytewise(bytes("abc")), 0x352441C2u);
  // And the fast paths against the same constants directly.
  EXPECT_EQ(crc16_ccitt(bytes("123456789")), 0x29B1);
  EXPECT_EQ(crc16_ccitt_sliced(bytes("123456789")), 0x29B1);
  EXPECT_EQ(crc32_ieee(bytes("abc")), 0x352441C2u);
}

TEST(CrcDifferential, BackendReportsNonEmptyName) {
  EXPECT_NE(crc_backend(), nullptr);
  EXPECT_NE(std::string_view{crc_backend()}, "");
}

// A dispatch bug that left a PCLMULQDQ host on the table path would pass
// every differential test above while losing the kernel's whole gain.
TEST(CrcDifferential, FoldKernelRunsWherePclmulIsAvailable) {
#if defined(__x86_64__) && defined(__GNUC__)
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("pclmul") || !__builtin_cpu_supports("ssse3")) {
    GTEST_SKIP() << "CPU lacks PCLMULQDQ or SSSE3";
  }
  EXPECT_NE(std::string_view{crc_backend()}.find("pclmul-fold"),
            std::string_view::npos)
      << crc_backend();
#else
  GTEST_SKIP() << "the fold kernel is built for x86-64 only";
#endif
}

}  // namespace
}  // namespace lamsdlc::phy
