#include "lamsdlc/phy/crc.hpp"

#include <array>
#include <bit>
#include <cstring>

// CRC-16 on x86-64 (GNU-compatible compilers) goes through carry-less-multiply
// folding kernels (Gopal et al., "Fast CRC Computation for Generic Polynomials
// Using PCLMULQDQ Instruction", Intel 2009), chosen once from CPUID: inputs of
// 128 bytes or more take the 256-bit VPCLMULQDQ kernel where the CPU has AVX2
// and VPCLMULQDQ, inputs of 64 bytes or more the 128-bit PCLMULQDQ kernel
// where it has PCLMULQDQ and SSSE3.  Shorter inputs, other architectures and
// older CPUs take the slice-by-8 tables.
#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define LAMSDLC_CRC16_FOLD 1
#else
#define LAMSDLC_CRC16_FOLD 0
#endif

// True IEEE-polynomial CRC32 instructions exist on ARMv8 (armv8-a+crc); the
// x86 SSE4.2 `crc32` instruction computes CRC-32C (Castagnoli, 0x1EDC6F41)
// and is useless for the 802.3 polynomial, so x86 CRC-32 stays on the
// slice-by-8 path (no frame carries a CRC-32).
#if defined(__ARM_FEATURE_CRC32)
#include <arm_acle.h>
#define LAMSDLC_CRC32_HW 1
#else
#define LAMSDLC_CRC32_HW 0
#endif

namespace lamsdlc::phy {
namespace {

constexpr std::array<std::uint16_t, 256> make_crc16_table() {
  std::array<std::uint16_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint16_t c = static_cast<std::uint16_t>(i << 8);
    for (int b = 0; b < 8; ++b) {
      c = static_cast<std::uint16_t>((c & 0x8000u) ? (c << 1) ^ 0x1021u : (c << 1));
    }
    t[i] = c;
  }
  return t;
}

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int b = 0; b < 8; ++b) {
      c = (c & 1u) ? (c >> 1) ^ 0xEDB88320u : (c >> 1);
    }
    t[i] = c;
  }
  return t;
}

constexpr auto kCrc16Table = make_crc16_table();
constexpr auto kCrc32Table = make_crc32_table();

/// Slice-by-8 (Intel's "slicing-by-8"): table k folds one input byte followed
/// by k zero bytes into the CRC, so eight bytes fold in parallel with eight
/// independent loads per iteration instead of eight dependent table steps.
/// Table 0 is the classic one-byte table; table k advances table k-1 by one
/// zero byte.
constexpr std::array<std::array<std::uint16_t, 256>, 8> make_crc16_slices() {
  std::array<std::array<std::uint16_t, 256>, 8> t{};
  t[0] = make_crc16_table();
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint16_t prev = t[k - 1][i];
      t[k][i] =
          static_cast<std::uint16_t>((prev << 8) ^ t[0][(prev >> 8) & 0xFFu]);
    }
  }
  return t;
}

constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc32_slices() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  t[0] = make_crc32_table();
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = t[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return t;
}

constexpr auto kCrc16Slices = make_crc16_slices();
constexpr auto kCrc32Slices = make_crc32_slices();

/// The 8-byte inner loops read the input through little-endian 32-bit loads;
/// on a big-endian host the reflected CRC32 mixing below would be wrong, so
/// such hosts keep the (identical-output) bytewise loops.
constexpr bool kLittleEndian = std::endian::native == std::endian::little;

/// Slice-by-8 CRC-16 over [p, p+n) from running state \p crc (the caller
/// supplies the init value; there is no xor-out).
std::uint16_t crc16_update(std::uint16_t crc, const std::uint8_t* p,
                           std::size_t n) noexcept {
  const auto& t = kCrc16Slices;
  while (n >= 8) {
    // The 16-bit state covers the first two bytes; the remaining six fold in
    // as pure table lookups with no dependency on the running CRC.
    crc = static_cast<std::uint16_t>(
        t[7][(crc >> 8) ^ p[0]] ^ t[6][(crc ^ p[1]) & 0xFFu] ^ t[5][p[2]] ^
        t[4][p[3]] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]]);
    p += 8;
    n -= 8;
  }
  for (; n > 0; --n, ++p) {
    crc = static_cast<std::uint16_t>((crc << 8) ^
                                     kCrc16Table[((crc >> 8) ^ *p) & 0xFFu]);
  }
  return crc;
}

#if LAMSDLC_CRC16_FOLD
/// x^k mod P for the CRC-16/CCITT polynomial P = x^16 + x^12 + x^5 + 1.
consteval long long x_pow_mod_p(unsigned k) {
  std::uint32_t r = 1;
  for (unsigned i = 0; i < k; ++i) {
    r <<= 1;
    if (r & 0x10000u) r ^= 0x11021u;
  }
  return r;
}

// GCC inlines a helper into a kernel only if the helper's target features
// are a subset of the kernel's, so every function below that uses the
// intrinsics carries them.
#define LAMSDLC_FOLD_TARGET __attribute__((target("pclmul,ssse3")))
#define LAMSDLC_WIDE_TARGET __attribute__((target("avx2,pclmul,vpclmulqdq")))

LAMSDLC_FOLD_TARGET inline __m128i byte_reverse(__m128i v) {
  return _mm_shuffle_epi8(
      v, _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
}

/// The 16 bytes at \p p as one polynomial: the first byte's top bit is the
/// x^127 coefficient, the CRC's most-significant-bit-first order.
LAMSDLC_FOLD_TARGET inline __m128i load_block(const std::uint8_t* p) {
  return byte_reverse(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

/// A value congruent to a * x^d + next (mod P), where \p k holds
/// (x^(d+64) mod P, x^d mod P) in its (high, low) halves.  Each product is
/// a 64-bit half times a 16-bit constant, so it fits in 80 bits.
LAMSDLC_FOLD_TARGET inline __m128i fold(__m128i a, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x11),
                                     _mm_clmulepi64_si128(a, k, 0x00)),
                       next);
}

/// crc16_fold's shortest input: one block for each of its four lanes.
constexpr std::size_t kFoldMinBytes = 64;

/// Finishes the CRC of a message whose first bytes four lanes stand for:
/// the message is congruent to the 64 bytes l0 || l1 || l2 || l3 followed
/// by [p, p+n), and the lanes already carry the 0xFFFF init.  Each step
/// advances all four lanes by 64 bytes; the lanes then fold into one, whole
/// 16-byte blocks fold into that, and the last 16-byte value A plus the tail
/// (< 16 bytes) go through the tables: CRC(A || tail) with init 0 is
/// (A * x^(8 * |tail|) + tail) * x^16 mod P.  Reads only [p, p+n).
LAMSDLC_FOLD_TARGET inline std::uint16_t fold_lanes(__m128i l0, __m128i l1,
                                                    __m128i l2, __m128i l3,
                                                    const std::uint8_t* p,
                                                    std::size_t n) noexcept {
  const __m128i by64 = _mm_set_epi64x(x_pow_mod_p(576), x_pow_mod_p(512));
  const __m128i by16 = _mm_set_epi64x(x_pow_mod_p(192), x_pow_mod_p(128));
  for (; n >= 64; p += 64, n -= 64) {
    l0 = fold(l0, by64, load_block(p));
    l1 = fold(l1, by64, load_block(p + 16));
    l2 = fold(l2, by64, load_block(p + 32));
    l3 = fold(l3, by64, load_block(p + 48));
  }
  __m128i acc = fold(fold(fold(l0, by16, l1), by16, l2), by16, l3);
  for (; n >= 16; p += 16, n -= 16) acc = fold(acc, by16, load_block(p));
  std::array<std::uint8_t, 16> rest{};
  _mm_storeu_si128(reinterpret_cast<__m128i*>(rest.data()), byte_reverse(acc));
  return crc16_update(crc16_update(0, rest.data(), rest.size()), p, n);
}

/// CRC-16/CCITT-FALSE of n >= kFoldMinBytes bytes: four 128-bit lanes hold
/// the polynomials of interleaved 16-byte blocks (see fold_lanes).
LAMSDLC_FOLD_TARGET std::uint16_t crc16_fold(const std::uint8_t* p,
                                             std::size_t n) noexcept {
  // Init 0xFFFF is the same as inverting the first two message bytes.
  const __m128i init = _mm_set_epi16(-1, 0, 0, 0, 0, 0, 0, 0);
  return fold_lanes(_mm_xor_si128(load_block(p), init), load_block(p + 16),
                    load_block(p + 32), load_block(p + 48), p + 64, n - 64);
}

/// The 32 bytes at \p p as two blocks, the first in the low half
/// (vpshufb reverses bytes within each 128-bit half).
LAMSDLC_WIDE_TARGET inline __m256i load_pair(const std::uint8_t* p) {
  return _mm256_shuffle_epi8(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)),
      _mm256_broadcastsi128_si256(_mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                               10, 11, 12, 13, 14, 15)));
}

/// fold() on both 128-bit halves at once.
LAMSDLC_WIDE_TARGET inline __m256i fold_pair(__m256i a, __m256i k,
                                             __m256i next) {
  return _mm256_xor_si256(
      _mm256_xor_si256(_mm256_clmulepi64_epi128(a, k, 0x11),
                       _mm256_clmulepi64_epi128(a, k, 0x00)),
      next);
}

/// crc16_fold_wide's shortest input: one pair of blocks for each lane.
constexpr std::size_t kWideMinBytes = 128;

/// CRC-16/CCITT-FALSE of n >= kWideMinBytes bytes.  Four 256-bit lanes hold
/// eight interleaved 16-byte blocks and each step advances all of them by
/// 128 bytes; the eight then fold by 64 bytes into the four lanes
/// fold_lanes finishes with.
LAMSDLC_WIDE_TARGET std::uint16_t crc16_fold_wide(const std::uint8_t* p,
                                                  std::size_t n) noexcept {
  const __m256i by128 = _mm256_broadcastsi128_si256(
      _mm_set_epi64x(x_pow_mod_p(1088), x_pow_mod_p(1024)));
  const __m256i by64 = _mm256_broadcastsi128_si256(
      _mm_set_epi64x(x_pow_mod_p(576), x_pow_mod_p(512)));
  const __m256i init =
      _mm256_set_epi16(0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0);
  __m256i y0 = _mm256_xor_si256(load_pair(p), init);
  __m256i y1 = load_pair(p + 32);
  __m256i y2 = load_pair(p + 64);
  __m256i y3 = load_pair(p + 96);
  for (p += 128, n -= 128; n >= 128; p += 128, n -= 128) {
    y0 = fold_pair(y0, by128, load_pair(p));
    y1 = fold_pair(y1, by128, load_pair(p + 32));
    y2 = fold_pair(y2, by128, load_pair(p + 64));
    y3 = fold_pair(y3, by128, load_pair(p + 96));
  }
  // Block i folds onto block i + 4, 64 bytes on.
  const __m256i lo = fold_pair(y0, by64, y2);
  const __m256i hi = fold_pair(y1, by64, y3);
  const __m128i l0 = _mm256_castsi256_si128(lo);
  const __m128i l1 = _mm256_extracti128_si256(lo, 1);
  const __m128i l2 = _mm256_castsi256_si128(hi);
  const __m128i l3 = _mm256_extracti128_si256(hi, 1);
  // GCC emits no vzeroupper for a target("avx2") function in a build without
  // -mavx.  Dirty upper YMM state makes every later legacy-SSE instruction in
  // the process pay a merge; whole link_8k runs were ~18% slower for it.
  _mm256_zeroupper();
  return fold_lanes(l0, l1, l2, l3, p, n);
}

enum class FoldKernel : std::uint8_t { kTables, kFold128, kFold256 };

/// The widest fold this CPU runs, resolved once.  crc16_ccitt may run
/// during static initialisation, so the CPU model is initialised here
/// rather than assumed.
FoldKernel fold_kernel() noexcept {
  static const FoldKernel kernel = [] {
    __builtin_cpu_init();
    if (!__builtin_cpu_supports("pclmul") || !__builtin_cpu_supports("ssse3")) {
      return FoldKernel::kTables;
    }
    return __builtin_cpu_supports("avx2") &&
                   __builtin_cpu_supports("vpclmulqdq")
               ? FoldKernel::kFold256
               : FoldKernel::kFold128;
  }();
  return kernel;
}
#endif

}  // namespace

std::uint16_t crc16_ccitt_bytewise(std::span<const std::uint8_t> data) noexcept {
  std::uint16_t crc = 0xFFFFu;
  for (std::uint8_t byte : data) {
    crc = static_cast<std::uint16_t>((crc << 8) ^
                                     kCrc16Table[((crc >> 8) ^ byte) & 0xFFu]);
  }
  return crc;
}

std::uint32_t crc32_ieee_bytewise(std::span<const std::uint8_t> data) noexcept {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    crc = kCrc32Table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint16_t crc16_ccitt_sliced(std::span<const std::uint8_t> data) noexcept {
  if constexpr (!kLittleEndian) return crc16_ccitt_bytewise(data);
  return crc16_update(0xFFFFu, data.data(), data.size());
}

std::uint16_t crc16_ccitt_fold128(std::span<const std::uint8_t> data) noexcept {
#if LAMSDLC_CRC16_FOLD
  if (data.size() >= kFoldMinBytes && fold_kernel() != FoldKernel::kTables) {
    return crc16_fold(data.data(), data.size());
  }
#endif
  return crc16_ccitt_sliced(data);
}

std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data) noexcept {
#if LAMSDLC_CRC16_FOLD
  if (data.size() >= kWideMinBytes && fold_kernel() == FoldKernel::kFold256) {
    return crc16_fold_wide(data.data(), data.size());
  }
#endif
  return crc16_ccitt_fold128(data);
}

std::uint32_t crc32_ieee(std::span<const std::uint8_t> data) noexcept {
#if LAMSDLC_CRC32_HW
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    crc = __crc32d(crc, v);
    p += 8;
    n -= 8;
  }
  for (; n > 0; --n, ++p) crc = __crc32b(crc, *p);
  return crc ^ 0xFFFFFFFFu;
#else
  if constexpr (!kLittleEndian) return crc32_ieee_bytewise(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  const auto& t = kCrc32Slices;
  while (n >= 8) {
    std::uint32_t lo;
    std::memcpy(&lo, p, 4);  // unaligned little-endian load
    lo ^= crc;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    p += 8;
    n -= 8;
  }
  for (; n > 0; --n, ++p) {
    crc = kCrc32Table[(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
#endif
}

const char* crc_backend() noexcept {
#if LAMSDLC_CRC16_FOLD
  switch (fold_kernel()) {
    case FoldKernel::kFold256:
      return "vpclmul-fold (crc16) + slice-by-8 (crc32)";
    case FoldKernel::kFold128:
      return "pclmul-fold (crc16) + slice-by-8 (crc32)";
    case FoldKernel::kTables:
      break;
  }
#endif
#if LAMSDLC_CRC32_HW
  return "slice-by-8 (crc16) + armv8 crc32 (crc32)";
#else
  return kLittleEndian ? "slice-by-8" : "bytewise (big-endian host)";
#endif
}

}  // namespace lamsdlc::phy
