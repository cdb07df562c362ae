#include "storage/crc64.h"

#include <bit>
#include <cstring>

#include "simd/cpu_features.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FSI_CRC_CLMUL 1
#include <immintrin.h>
#else
#define FSI_CRC_CLMUL 0
#endif

namespace fsi::storage {
namespace {

// The ECMA-182 polynomial in normal form (x^64 implicit) and its reflected
// form, which is what the bit-reflected CRC-64/XZ shifts by.
constexpr std::uint64_t kPolyNormal = 0x42F0E1EBA9EA3693ULL;
constexpr std::uint64_t kPoly = 0xC96C5795D7870F42ULL;

constexpr std::uint64_t Reflect64(std::uint64_t v) {
  std::uint64_t r = 0;
  for (int i = 0; i < 64; ++i) r |= ((v >> i) & 1) << (63 - i);
  return r;
}
static_assert(Reflect64(kPolyNormal) == kPoly);

// tables[0] is the classic bytewise table; tables[k] advances a byte that
// sits k positions deeper in the 16-byte gulp (slice-by-16: two 8-byte
// words per step, with the CRC folded into the first — the second word's
// tables bake in an extra 8-byte shift).
struct Crc64Tables {
  std::uint64_t t[16][256];

  Crc64Tables() {
    for (unsigned i = 0; i < 256; ++i) {
      std::uint64_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (unsigned i = 0; i < 256; ++i) {
      for (int k = 1; k < 16; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
  }
};

const Crc64Tables& Tables() {
  static const Crc64Tables tables;
  return tables;
}

/// Advances the raw CRC register (no pre/post inversion) over `bytes`
/// bytes at `p` with the tables.
std::uint64_t UpdateTable(std::uint64_t crc, const unsigned char* p,
                          std::size_t bytes) {
  const Crc64Tables& tb = Tables();
  // The wide gulp folds the low half of the running CRC into the input
  // words directly, which is only correct when the in-memory word order
  // matches the reflected bit order — i.e. on little-endian hosts.  The
  // snapshot format is little-endian-only anyway; big-endian hosts take
  // the bytewise loop below.
  if constexpr (std::endian::native == std::endian::little) {
    while (bytes >= 16) {
      std::uint64_t a, b;
      std::memcpy(&a, p, 8);
      std::memcpy(&b, p + 8, 8);
      a ^= crc;
      crc = tb.t[15][a & 0xFF] ^ tb.t[14][(a >> 8) & 0xFF] ^
            tb.t[13][(a >> 16) & 0xFF] ^ tb.t[12][(a >> 24) & 0xFF] ^
            tb.t[11][(a >> 32) & 0xFF] ^ tb.t[10][(a >> 40) & 0xFF] ^
            tb.t[9][(a >> 48) & 0xFF] ^ tb.t[8][a >> 56] ^
            tb.t[7][b & 0xFF] ^ tb.t[6][(b >> 8) & 0xFF] ^
            tb.t[5][(b >> 16) & 0xFF] ^ tb.t[4][(b >> 24) & 0xFF] ^
            tb.t[3][(b >> 32) & 0xFF] ^ tb.t[2][(b >> 40) & 0xFF] ^
            tb.t[1][(b >> 48) & 0xFF] ^ tb.t[0][b >> 56];
      p += 16;
      bytes -= 16;
    }
    while (bytes >= 8) {
      std::uint64_t chunk;
      std::memcpy(&chunk, p, 8);
      crc ^= chunk;
      crc = tb.t[7][crc & 0xFF] ^ tb.t[6][(crc >> 8) & 0xFF] ^
            tb.t[5][(crc >> 16) & 0xFF] ^ tb.t[4][(crc >> 24) & 0xFF] ^
            tb.t[3][(crc >> 32) & 0xFF] ^ tb.t[2][(crc >> 40) & 0xFF] ^
            tb.t[1][(crc >> 48) & 0xFF] ^ tb.t[0][crc >> 56];
      p += 8;
      bytes -= 8;
    }
  }
  while (bytes-- > 0) {
    crc = tb.t[0][(crc ^ *p++) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#if FSI_CRC_CLMUL

// x^n mod P in normal form (bit j is the coefficient of x^j).
constexpr std::uint64_t XPowModP(int n) {
  std::uint64_t r = 1;
  for (int i = 0; i < n; ++i) {
    r = (r << 1) ^ ((r >> 63) != 0 ? kPolyNormal : 0);
  }
  return r;
}

// Fold constants for a distance of d bits.  A 16-byte lane loaded little-
// endian holds its first 8 stream bytes (the higher-degree half, A·x^64)
// in the low qword and the next 8 (B) in the high qword; moving the lane
// d bits forward multiplies it by x^d.  A reflected carry-less product of
// two 64-bit operands comes out one degree short (bit k of the 128-bit
// product stands for x^(126-k), a 128-bit lane's bit k for x^(127-k)), so
// the constants carry one power less: x^(d+63) for A, x^(d-1) for B.
struct FoldConstants {
  std::uint64_t lo;  // multiplies the lane's low qword
  std::uint64_t hi;  // multiplies the lane's high qword
};

constexpr FoldConstants FoldBy(int d) {
  return {Reflect64(XPowModP(d + 63)), Reflect64(XPowModP(d - 1))};
}

constexpr FoldConstants kFold512 = FoldBy(512);  // four lanes: 64 bytes
constexpr FoldConstants kFold128 = FoldBy(128);  // one lane: 16 bytes

__attribute__((target("pclmul,sse2"), always_inline)) inline __m128i Fold(
    __m128i lane, __m128i k, __m128i next) {
  const __m128i a = _mm_clmulepi64_si128(lane, k, 0x00);
  const __m128i b = _mm_clmulepi64_si128(lane, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(a, b), next);
}

__attribute__((target("pclmul,sse2"))) std::uint64_t UpdateClmul(
    std::uint64_t crc, const unsigned char* p, std::size_t bytes) {
  if (bytes < 128) return UpdateTable(crc, p, bytes);
  const auto load = [](const unsigned char* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  const __m128i k512 = _mm_set_epi64x(static_cast<long long>(kFold512.hi),
                                      static_cast<long long>(kFold512.lo));
  const __m128i k128 = _mm_set_epi64x(static_cast<long long>(kFold128.hi),
                                      static_cast<long long>(kFold128.lo));
  // The register enters as the first 8 message bytes' XOR, exactly as
  // the table loop folds it into its first word.
  __m128i x0 = _mm_xor_si128(
      load(p), _mm_cvtsi64_si128(static_cast<long long>(crc)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  bytes -= 64;
  while (bytes >= 64) {
    x0 = Fold(x0, k512, load(p));
    x1 = Fold(x1, k512, load(p + 16));
    x2 = Fold(x2, k512, load(p + 32));
    x3 = Fold(x3, k512, load(p + 48));
    p += 64;
    bytes -= 64;
  }
  __m128i x = Fold(x0, k128, x1);
  x = Fold(x, k128, x2);
  x = Fold(x, k128, x3);
  while (bytes >= 16) {
    x = Fold(x, k128, load(p));
    p += 16;
    bytes -= 16;
  }
  // x is congruent mod P to everything consumed so far, seated as the last
  // 16 bytes: the register after it is the table CRC of those 16 bytes
  // from a zero register.  No Barrett reduction needed.
  alignas(16) unsigned char last[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(last), x);
  return UpdateTable(UpdateTable(0, last, 16), p, bytes);
}

#endif  // FSI_CRC_CLMUL

using UpdateFn = std::uint64_t (*)(std::uint64_t, const unsigned char*,
                                   std::size_t);

UpdateFn ResolveUpdate() {
#if FSI_CRC_CLMUL
  if (!simd::ForceScalarEnv() && __builtin_cpu_supports("pclmul")) {
    return UpdateClmul;
  }
#endif
  return UpdateTable;
}

}  // namespace

std::uint64_t Crc64(const void* data, std::size_t bytes, std::uint64_t seed) {
  static const UpdateFn update = ResolveUpdate();
  return ~update(~seed, static_cast<const unsigned char*>(data), bytes);
}

std::uint64_t Crc64Scalar(const void* data, std::size_t bytes,
                          std::uint64_t seed) {
  return ~UpdateTable(~seed, static_cast<const unsigned char*>(data), bytes);
}

}  // namespace fsi::storage
