#include "simd/decode_kernels.h"

#include <cassert>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FSI_SIMD_X86 1
#include <immintrin.h>
#else
#define FSI_SIMD_X86 0
#endif

namespace fsi::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar tier — the reference semantics every vector tier must reproduce
// bit-for-bit.  Extraction matches BitReader::Read exactly: fields are
// MSB-first inside 64-bit words.
// ---------------------------------------------------------------------------

void UnpackBitsScalar(const std::uint64_t* words, std::size_t words_len,
                      std::size_t bit_offset, int width, std::uint32_t base,
                      std::uint32_t* out, std::size_t count) {
  assert(width >= 0 && width <= 32);
  assert(bit_offset + count * static_cast<std::size_t>(width) <=
         words_len * 64);
  (void)words_len;
  if (width == 0) {
    for (std::size_t i = 0; i < count; ++i) out[i] = base;
    return;
  }
  std::size_t p = bit_offset;
  for (std::size_t i = 0; i < count; ++i, p += width) {
    const std::size_t w = p >> 6;
    const int s = static_cast<int>(p & 63);
    std::uint64_t v;
    if (s + width <= 64) {
      v = (words[w] << s) >> (64 - width);
    } else {
      // Field straddles a word boundary (s > 32 here since width <= 32,
      // so both shifts below are by amounts in (0, 64)).
      v = ((words[w] << s) | (words[w + 1] >> (64 - s))) >> (64 - width);
    }
    out[i] = base + static_cast<std::uint32_t>(v);
  }
}

void Unpack8Scalar(const std::uint64_t* words, std::size_t bit_offset,
                   int width, std::uint32_t base, std::uint32_t* out) {
  assert(width >= 0 && width <= 32);
  for (std::size_t i = 0; i < 8; ++i) {
    const std::size_t p = bit_offset + i * static_cast<std::size_t>(width);
    const std::size_t w = p >> 6;
    const int s = static_cast<int>(p & 63);
    // (x >> 1) >> (63 - n) == x >> (64 - n), and 0 for n == 0: branch-free
    // for aligned fields and for width 0.  words[w + 1] exists by the
    // caller's (bit_offset >> 6) + 6 <= words_len guarantee.
    const std::uint64_t v =
        (words[w] << s) | ((words[w + 1] >> 1) >> (63 - s));
    out[i] = base + static_cast<std::uint32_t>((v >> 1) >> (63 - width));
  }
}

void PrefixSumScalar(std::uint32_t* vals, std::size_t count,
                     std::uint32_t base) {
  std::uint32_t acc = base;
  for (std::size_t i = 0; i < count; ++i) {
    acc += vals[i];
    vals[i] = acc;
  }
}

#if FSI_SIMD_X86

// ---------------------------------------------------------------------------
// SSE tier.  Per-lane variable 64-bit shifts (vpsllvq/vpsrlvq) only exist
// from AVX2 up, so bit-field extraction stays scalar here; the prefix-sum
// network runs 4 uint32 lanes per step.
// ---------------------------------------------------------------------------

__attribute__((target("ssse3"))) void PrefixSumSse(std::uint32_t* vals,
                                                   std::size_t count,
                                                   std::uint32_t base) {
  std::uint32_t carry = base;
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(vals + i));
    // Shift-add prefix network: after two steps lane j holds
    // vals[i] + ... + vals[i + j].
    x = _mm_add_epi32(x, _mm_slli_si128(x, 4));
    x = _mm_add_epi32(x, _mm_slli_si128(x, 8));
    x = _mm_add_epi32(x, _mm_set1_epi32(static_cast<int>(carry)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(vals + i), x);
    carry = static_cast<std::uint32_t>(
        _mm_extract_epi16(x, 6) |
        (_mm_extract_epi16(x, 7) << 16));  // lane 3
  }
  PrefixSumScalar(vals + i, count - i, carry);
}

// ---------------------------------------------------------------------------
// AVX2 tier.
// ---------------------------------------------------------------------------

// One 4-field block, gather-free: the four fields plus any in-word start
// offset span at most 63 + 4*32 = 191 bits, so ONE unaligned 256-bit
// window load starting at the block's first word covers both words of
// every lane.  Per-lane word-pair selection is then two cheap qword
// permutes (vpermd with computed dword indices) instead of two
// high-latency gathers; alignment stays the per-lane variable-shift
// scheme.  Requires (bp >> 6) + 4 <= words_len (caller-checked).
//
// Word index of each lane's field start, relative to the window (0..2),
// becomes dword indices: qword k of the window is dwords (2k, 2k + 1).
// vpermd reads a dword index per output dword, so the selector packs 2k
// into the low half of each qword lane and 2k + 1 into the high half.
//
// MSB-first alignment: (w0 << sh) | (w1 >> (64 - sh)), then >> (64 -
// width).  AVX2 variable shifts by >= 64 yield 0, which is exactly what
// sh == 0 needs for the w1 term.  When a lane's field does not straddle,
// its w1 selector may point one word past its own pair — still inside
// the window, and the shift masks it out.
// Extracts the 4 fields whose absolute bit positions are in `pos` from
// the window loaded at word k0; each qword lane ends up holding its field
// value in the low `width` bits.
__attribute__((target("avx2"), always_inline)) inline __m256i
ExtractLanesAvx2(__m256i win, __m256i pos, long long k0, int width) {
  const __m256i v63 = _mm256_set1_epi64x(63);
  const __m256i v64 = _mm256_set1_epi64x(64);
  const __m256i vone = _mm256_set1_epi64x(1);
  const __m256i vtwo = _mm256_set1_epi64x(2);
  const __m256i norm = _mm256_set1_epi64x(64 - width);
  const __m256i rel = _mm256_sub_epi64(_mm256_srli_epi64(pos, 6),
                                       _mm256_set1_epi64x(k0));
  const __m256i sh = _mm256_and_si256(pos, v63);
  const __m256i d0 = _mm256_slli_epi64(rel, 1);
  const __m256i sel0 = _mm256_or_si256(
      d0, _mm256_slli_epi64(_mm256_add_epi64(d0, vone), 32));
  const __m256i d1 = _mm256_add_epi64(d0, vtwo);
  const __m256i sel1 = _mm256_or_si256(
      d1, _mm256_slli_epi64(_mm256_add_epi64(d1, vone), 32));
  const __m256i w0 = _mm256_permutevar8x32_epi32(win, sel0);
  const __m256i w1 = _mm256_permutevar8x32_epi32(win, sel1);
  const __m256i hi = _mm256_sllv_epi64(w0, sh);
  const __m256i lo = _mm256_srlv_epi64(w1, _mm256_sub_epi64(v64, sh));
  return _mm256_srlv_epi64(_mm256_or_si256(hi, lo), norm);
}

__attribute__((target("avx2"), always_inline)) inline __m128i
UnpackBlock4Avx2(const std::uint64_t* words, std::size_t bp, int width,
                 std::uint32_t base, __m256i lane_bits) {
  const __m256i pack_idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  const std::size_t k0 = bp >> 6;
  const __m256i win = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(words + k0));
  const __m256i pos =
      _mm256_add_epi64(_mm256_set1_epi64x(static_cast<long long>(bp)),
                       lane_bits);
  const __m256i v = ExtractLanesAvx2(win, pos, static_cast<long long>(k0),
                                     width);
  // Truncate the four 64-bit lanes to uint32 and add the base.
  const __m256i packed = _mm256_permutevar8x32_epi32(v, pack_idx);
  return _mm_add_epi32(_mm256_castsi256_si128(packed),
                       _mm_set1_epi32(static_cast<int>(base)));
}

// Narrow widths (<= 16): 8 fields plus the start offset span at most
// 63 + 8*16 = 191 bits, so the SAME window feeds two 4-lane extracts —
// twice the work per load, and the two chains run independently.
__attribute__((target("avx2"), always_inline)) inline __m256i
UnpackBlock8Avx2(const std::uint64_t* words, std::size_t bp, int width,
                 std::uint32_t base, __m256i lane_bits_lo,
                 __m256i lane_bits_hi) {
  const std::size_t k0 = bp >> 6;
  const __m256i win = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(words + k0));
  const __m256i bpv = _mm256_set1_epi64x(static_cast<long long>(bp));
  const __m256i v_lo = ExtractLanesAvx2(
      win, _mm256_add_epi64(bpv, lane_bits_lo), static_cast<long long>(k0),
      width);
  const __m256i v_hi = ExtractLanesAvx2(
      win, _mm256_add_epi64(bpv, lane_bits_hi), static_cast<long long>(k0),
      width);
  // Truncate the eight 64-bit lanes to uint32: dwords 0-3 from the low
  // block, 4-7 from the high block, then add the base.
  const __m256i packed = _mm256_blend_epi32(
      _mm256_permutevar8x32_epi32(v_lo,
                                  _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0)),
      _mm256_permutevar8x32_epi32(v_hi,
                                  _mm256_setr_epi32(0, 0, 0, 0, 0, 2, 4, 6)),
      0xF0);
  return _mm256_add_epi32(packed,
                          _mm256_set1_epi32(static_cast<int>(base)));
}

// The vector body stops while 4 whole words remain past the current
// position and the scalar loop finishes the tail — the kernel never
// reads past words + words_len.
__attribute__((target("avx2"))) void UnpackBitsAvx2(
    const std::uint64_t* words, std::size_t words_len, std::size_t bit_offset,
    int width, std::uint32_t base, std::uint32_t* out, std::size_t count) {
  assert(width >= 0 && width <= 32);
  if (width == 0) {
    for (std::size_t i = 0; i < count; ++i) out[i] = base;
    return;
  }
  // Tiny runs (a single compressed group is ~8 fields) lose to the
  // vector setup cost; hand them straight to the scalar loop.
  if (count < 16) {
    UnpackBitsScalar(words, words_len, bit_offset, width, base, out, count);
    return;
  }
  const std::size_t stride = static_cast<std::size_t>(width);
  std::size_t p = bit_offset;
  std::size_t i = 0;
  const __m256i lane_bits = _mm256_setr_epi64x(0, static_cast<long long>(stride),
                                               static_cast<long long>(2 * stride),
                                               static_cast<long long>(3 * stride));
  if (width <= 16) {
    // 8 fields per window; unrolled 2x so the out-of-order core overlaps
    // the two blocks' (fairly long) permute/shift dependency chains.
    const __m256i lane_bits_hi = _mm256_setr_epi64x(
        static_cast<long long>(4 * stride), static_cast<long long>(5 * stride),
        static_cast<long long>(6 * stride), static_cast<long long>(7 * stride));
    while (i + 16 <= count && ((p + 8 * stride) >> 6) + 4 <= words_len) {
      const __m256i a =
          UnpackBlock8Avx2(words, p, width, base, lane_bits, lane_bits_hi);
      const __m256i b = UnpackBlock8Avx2(words, p + 8 * stride, width, base,
                                         lane_bits, lane_bits_hi);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), a);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 8), b);
      i += 16;
      p += 16 * stride;
    }
    while (i + 8 <= count && (p >> 6) + 4 <= words_len) {
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + i),
          UnpackBlock8Avx2(words, p, width, base, lane_bits, lane_bits_hi));
      i += 8;
      p += 8 * stride;
    }
  }
  // Unrolled 2x: the two blocks share no data, so the out-of-order core
  // overlaps their (fairly long) permute/shift dependency chains.
  while (i + 8 <= count && ((p + 4 * stride) >> 6) + 4 <= words_len) {
    const __m128i a = UnpackBlock4Avx2(words, p, width, base, lane_bits);
    const __m128i b =
        UnpackBlock4Avx2(words, p + 4 * stride, width, base, lane_bits);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), a);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 4), b);
    i += 8;
    p += 8 * stride;
  }
  while (i + 4 <= count && (p >> 6) + 4 <= words_len) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     UnpackBlock4Avx2(words, p, width, base, lane_bits));
    i += 4;
    p += 4 * stride;
  }
  UnpackBitsScalar(words, words_len, p, width, base, out + i, count - i);
}

// One group: widths <= 16 take a single window (UnpackBlock8Avx2), wider
// fields two 4-lane blocks.  The second block's window starts at most two
// words after the first, hence the (bit_offset >> 6) + 6 word guarantee.
__attribute__((target("avx2"))) void Unpack8Avx2(const std::uint64_t* words,
                                                 std::size_t bit_offset,
                                                 int width, std::uint32_t base,
                                                 std::uint32_t* out) {
  assert(width >= 0 && width <= 32);
  const long long stride = width;
  const __m256i lane_bits =
      _mm256_setr_epi64x(0, stride, 2 * stride, 3 * stride);
  if (width <= 16) {
    const __m256i lane_bits_hi =
        _mm256_setr_epi64x(4 * stride, 5 * stride, 6 * stride, 7 * stride);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                        UnpackBlock8Avx2(words, bit_offset, width, base,
                                         lane_bits, lane_bits_hi));
    return;
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                   UnpackBlock4Avx2(words, bit_offset, width, base, lane_bits));
  _mm_storeu_si128(
      reinterpret_cast<__m128i*>(out + 4),
      UnpackBlock4Avx2(words, bit_offset + 4 * static_cast<std::size_t>(width),
                       width, base, lane_bits));
}

__attribute__((target("avx2"))) void PrefixSumAvx2(std::uint32_t* vals,
                                                   std::size_t count,
                                                   std::uint32_t base) {
  std::uint32_t carry = base;
  std::size_t i = 0;
  const __m256i bcast3 = _mm256_set1_epi32(3);
  for (; i + 8 <= count; i += 8) {
    __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + i));
    // Within each 128-bit half: the 4-lane shift-add network.
    x = _mm256_add_epi32(x, _mm256_slli_si256(x, 4));
    x = _mm256_add_epi32(x, _mm256_slli_si256(x, 8));
    // Propagate the low half's total (lane 3) into the high half only.
    const __m256i low_total = _mm256_blend_epi32(
        _mm256_setzero_si256(), _mm256_permutevar8x32_epi32(x, bcast3), 0xF0);
    x = _mm256_add_epi32(x, low_total);
    x = _mm256_add_epi32(x, _mm256_set1_epi32(static_cast<int>(carry)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(vals + i), x);
    carry = static_cast<std::uint32_t>(
        _mm256_extract_epi32(x, 7));  // lane 7
  }
  PrefixSumScalar(vals + i, count - i, carry);
}

#endif  // FSI_SIMD_X86

constexpr DecodeKernels kScalarDecodeTable = {
    Level::kScalar, UnpackBitsScalar, Unpack8Scalar, PrefixSumScalar,
};

#if FSI_SIMD_X86
constexpr DecodeKernels kSseDecodeTable = {
    Level::kSse, UnpackBitsScalar, Unpack8Scalar, PrefixSumSse,
};
constexpr DecodeKernels kAvx2DecodeTable = {
    Level::kAvx2, UnpackBitsAvx2, Unpack8Avx2, PrefixSumAvx2,
};
#endif

}  // namespace

const DecodeKernels& ScalarDecodeKernels() { return kScalarDecodeTable; }

const DecodeKernels& DecodeKernelsForLevel(Level level) {
  // Clamp to what this CPU can execute, then pick the table.
  Level detected = DetectCpuLevel();
  Level effective = level;
  if (static_cast<int>(effective) > static_cast<int>(detected)) {
    effective = detected;
  }
#if FSI_SIMD_X86
  switch (effective) {
    case Level::kAvx2:
      return kAvx2DecodeTable;
    case Level::kSse:
      return kSseDecodeTable;
    case Level::kScalar:
      break;
  }
#endif
  (void)effective;
  return kScalarDecodeTable;
}

const DecodeKernels& DispatchedDecodeKernels() {
  // Resolved once: ActiveLevel() folds in the FSI_FORCE_SCALAR override.
  static const DecodeKernels& kernels = DecodeKernelsForLevel(ActiveLevel());
  return kernels;
}

}  // namespace fsi::simd
