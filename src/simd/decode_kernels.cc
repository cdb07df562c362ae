#include "simd/decode_kernels.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <type_traits>

#include "codec/bit_stream.h"
#include "util/rng.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FSI_SIMD_X86 1
#include <immintrin.h>
#else
#define FSI_SIMD_X86 0
#endif

namespace fsi::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar tier — the reference semantics the AVX2 tier must reproduce
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

void PermuteScalar(const FeistelPermutation& g, bool inverse,
                   std::uint32_t* vals, std::size_t count) {
  if (inverse) {
    for (std::size_t i = 0; i < count; ++i) {
      vals[i] = static_cast<std::uint32_t>(g.Invert(vals[i]));
    }
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      vals[i] = static_cast<std::uint32_t>(g.Apply(vals[i]));
    }
  }
}

// ---------------------------------------------------------------------------
// Lowbits streams: the loops behind lowbits_decode and lowbits_filter,
// shared by both tiers.  Each tier instantiates them inside a function
// carrying its target attribute and `flatten`, so the tier's group unpack
// and probe inline into one body per call.
// ---------------------------------------------------------------------------

/// Branch-free reads over one stream's words.  Every read stays inside the
/// words (the neighbour word index is clamped), so a window that runs past
/// the stream end yields garbage low bits, never an out-of-bounds load.
class LowbitsStream {
 public:
  explicit LowbitsStream(const LowbitsView& s)
      : words_(s.words), last_(s.n_words == 0 ? 0 : s.n_words - 1) {}

  /// The 64 bits starting at absolute bit `pos`, MSB-aligned.
  /// Precondition: pos < 64 * (number of words).
  std::uint64_t Peek(std::size_t pos) const {
    const std::size_t w = pos >> 6;
    const int off = static_cast<int>(pos & 63);
    // (x >> 1) >> (63 - off) == x >> (64 - off), and 0 when off == 0.
    return (words_[w] << off) |
           ((words_[std::min(w + 1, last_)] >> 1) >> (63 - off));
  }

  /// The `width`-bit field (0 <= width <= 32) at `pos`; 0 when width is 0.
  /// Precondition: pos < 64 * (number of words).
  std::uint32_t Field(std::size_t pos, int width) const {
    return static_cast<std::uint32_t>((Peek(pos) >> 1) >> (63 - width));
  }

  /// Reads the unary group length at *pos and advances past it.  Lengths
  /// below 64 resolve with one countl_zero; a validated stream guarantees
  /// the terminating 1-bit exists.
  std::size_t ReadLen(std::size_t* pos) const {
    const std::uint64_t v = Peek(*pos);
    if (v != 0) [[likely]] {
      const int zeros = std::countl_zero(v);
      *pos += static_cast<std::size_t>(zeros) + 1;
      return static_cast<std::size_t>(zeros);
    }
    BitReader r(words_, (last_ + 1) * 64);
    r.SeekTo(*pos);
    const std::uint64_t len = r.ReadUnary();
    *pos = r.position();
    return static_cast<std::size_t>(len);
  }

 private:
  const std::uint64_t* words_;
  std::size_t last_;
};

/// Fields per group unpack: ~8-element groups (t = ceil(log2(n / 8)))
/// almost always fit one.
constexpr std::size_t kGroupFields = 8;

using UnpackBitsFn = void (*)(const std::uint64_t*, std::size_t, std::size_t,
                              int, std::uint32_t, std::uint32_t*, std::size_t);

/// lowbits_decode over kChains chains.  Chain c owns decode blocks
/// [c * B / kChains, (c + 1) * B / kChains) of the stream's B blocks and
/// starts at its first block's skip entry.  Each group header is found
/// from the one before it (a countl_zero and a multiply), so one chain is
/// a serial walk; each round advances every chain by one group, and the
/// chains' walks overlap.  With several chains the stream has no image
/// words, so the values in front of block b number
/// (skips[b] - 8b) / (w + 1): every group costs its length + 1 header
/// bits plus w bits per field.
///
/// Unpack8 extracts 8 fields from a whole window (base added) and
/// UnpackBits is the tier's bounded unpack.  Whole 8-field chunks (one for
/// a typical group) write up to 7 surplus slots, which the chain's next
/// groups overwrite; a group whose surplus would cross into the next
/// chain's output, or whose last chunk would read past the stream's words
/// (a chunk reads six words from its start), takes the bounded unpack.
template <std::size_t kChains, class Unpack8, UnpackBitsFn UnpackBits>
inline void DecodeChains(const LowbitsView& s, std::uint32_t* out) {
  constexpr std::uint64_t kStride = kLowbitsSkipStride;
  // Locals, not reads through `s`: the stores to `out` could alias it.
  const std::uint64_t* const words = s.words;
  const std::size_t n_words = s.n_words;
  const int low_bits = s.low_bits;
  const std::size_t width = static_cast<std::size_t>(low_bits);
  const std::size_t image_bits = kChains == 1 ? s.image_bits : 0;
  const std::uint64_t num_groups = std::uint64_t{1} << s.t;
  const std::uint64_t num_blocks = (num_groups + kStride - 1) / kStride;
  const LowbitsStream bits(s);
  const Unpack8 unpack8(low_bits);
  // Chain c: groups [first[c], first[c] + count[c]); the header of its
  // next group at pos[c], whose values go to out[written[c]...), up to
  // limit[c], where the next chain's output starts.
  std::uint64_t first[kChains + 1];
  std::size_t pos[kChains], written[kChains + 1];
  for (std::size_t c = 0; c < kChains; ++c) {
    const std::uint64_t block = num_blocks * c / kChains;
    first[c] = block * kStride;
    pos[c] = c == 0 ? 0 : static_cast<std::size_t>(s.skips[block]);
    written[c] = (pos[c] - static_cast<std::size_t>(first[c])) / (width + 1);
  }
  first[kChains] = num_groups;
  written[kChains] = s.n;
  std::uint64_t count[kChains];
  std::size_t limit[kChains];
  std::uint64_t rounds = 0;
  for (std::size_t c = 0; c < kChains; ++c) {
    count[c] = first[c + 1] - first[c];
    limit[c] = written[c + 1];
    rounds = std::max(rounds, count[c]);  // counts differ by <= one block
  }
  for (std::uint64_t r = 0; r < rounds; ++r) {
#pragma GCC unroll 4
    for (std::size_t c = 0; c < kChains; ++c) {
      if (r >= count[c]) continue;
      const std::size_t len = bits.ReadLen(&pos[c]);
      if (len == 0) continue;
      const std::size_t field_pos = pos[c] + image_bits;
      const std::size_t end = field_pos + len * width;
      const std::uint32_t base =
          static_cast<std::uint32_t>((first[c] + r) << low_bits);
      std::uint32_t* dst = out + written[c];
      if (written[c] + (len + 7) / 8 * 8 <= limit[c] &&
          (end >> 6) + 6 <= n_words) {
        for (std::size_t i = 0; i < len; i += 8) {
          unpack8(words, field_pos + i * width, base, dst + i);
        }
      } else {
        UnpackBits(words, n_words, field_pos, low_bits, base, dst, len);
      }
      pos[c] = end;
      written[c] += len;
    }
  }
}

/// Decode blocks per chain at which the stream splits into chains.
constexpr std::uint64_t kMinBlocksPerChain = 4;

// lowbits_decode: four chains for a stream without image words and at
// least 16 decode blocks, otherwise the same loop with one chain.
template <class Unpack8, UnpackBitsFn UnpackBits>
inline void DecodeLowbits(const LowbitsView& s, std::uint32_t* out) {
  constexpr std::size_t kChains = 4;
  if (s.n == 0) return;
  const std::uint64_t num_blocks =
      ((std::uint64_t{1} << s.t) + kLowbitsSkipStride - 1) /
      kLowbitsSkipStride;
  if (s.image_bits == 0 && num_blocks >= kChains * kMinBlocksPerChain) {
    DecodeChains<kChains, Unpack8, UnpackBits>(s, out);
  } else {
    DecodeChains<1, Unpack8, UnpackBits>(s, out);
  }
}

// lowbits_filter.  Group, built once per call for the stream's field
// width, is the tier's probe over one group of 1..kFields fields: Unpack
// loads it from the stream in 8-field chunks (each reads six words from its
// start), Set from kFields fields extracted already (padded with copies of
// the last), Has tests a candidate's low bits.  Longer groups are scanned
// field by field.
template <class Group>
inline std::size_t FilterLowbits(const LowbitsView& s,
                                 const std::uint32_t* candidates,
                                 std::size_t count, std::uint32_t* out) {
  static_assert(Group::kFields <= 2 * kGroupFields);
  if (s.n == 0) return 0;
  constexpr std::uint64_t kStride = kLowbitsSkipStride;
  const int low_bits = s.low_bits;
  const std::size_t width = static_cast<std::size_t>(low_bits);
  const std::uint64_t low_mask = (std::uint64_t{1} << low_bits) - 1;
  const std::uint64_t num_groups = std::uint64_t{1} << s.t;
  const LowbitsStream bits(s);

  std::size_t pos = 0;        // header of group next_z
  std::uint64_t next_z = 0;
  std::uint64_t cur_z = ~std::uint64_t{0};  // the open group
  std::size_t len = 0;        // its element count
  std::size_t field_pos = 0;  // bit offset of its first field
  Group group(low_bits);
  std::size_t kept = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint32_t c = candidates[k];
    const std::uint64_t z = std::uint64_t{c} >> low_bits;
    if (z != cur_z) {
      if (z >= num_groups) break;
      const std::uint16_t offset = s.group_offsets != nullptr
                                       ? s.group_offsets[z]
                                       : kNoGroupOffset;
      if (offset != kNoGroupOffset) {
        pos = static_cast<std::size_t>(s.skips[z / kStride]) + offset;
      } else {
        // Skip-pointer seek when z lies in a later decode block, then
        // walk the (at most kStride - 1) headers in front of it.
        const std::uint64_t block_start = z - z % kStride;
        if (block_start > next_z) {
          pos = static_cast<std::size_t>(s.skips[z / kStride]);
          next_z = block_start;
        }
        for (; next_z < z; ++next_z) {
          const std::size_t skip_len = bits.ReadLen(&pos);
          if (skip_len != 0) pos += s.image_bits + skip_len * width;
        }
      }
      len = bits.ReadLen(&pos);
      cur_z = z;
      next_z = z + 1;
      if (len != 0) {
        field_pos = pos + s.image_bits;
        pos = field_pos + len * width;
      }
      if (len != 0 && len <= Group::kFields) {
        const std::size_t last_chunk =
            len > kGroupFields ? field_pos + kGroupFields * width : field_pos;
        if ((last_chunk >> 6) + 6 <= s.n_words) {
          group.Unpack(s.words, field_pos, len);
        } else {
          std::uint32_t fields[Group::kFields];
          for (std::size_t i = 0; i < Group::kFields; ++i) {
            fields[i] =
                bits.Field(field_pos + std::min(i, len - 1) * width, low_bits);
          }
          group.Set(fields, len);
        }
      }
    }
    if (len == 0) continue;
    const std::uint32_t low = static_cast<std::uint32_t>(c & low_mask);
    bool hit = false;
    if (len <= Group::kFields) {
      hit = group.Has(low);
    } else {
      for (std::size_t i = 0; i < len; ++i) {
        const std::uint32_t v = bits.Field(field_pos + i * width, low_bits);
        if (v >= low) {
          hit = v == low;
          break;
        }
      }
    }
    out[kept] = c;
    kept += hit ? 1 : 0;
  }
  return kept;
}

/// The scalar 8-field unpack for DecodeLowbits.
struct ScalarUnpack8 {
  explicit ScalarUnpack8(int w) : width(w) {}
  void operator()(const std::uint64_t* words, std::size_t bit_offset,
                  std::uint32_t base, std::uint32_t* out) const {
    Unpack8Scalar(words, bit_offset, width, base, out);
  }

  int width;
};

/// The scalar probe: the group's fields padded with copies of the last
/// member, so membership is eight fixed compares.
struct ScalarGroup {
  static constexpr std::size_t kFields = kGroupFields;

  explicit ScalarGroup(int w) : width(w) {}
  void Unpack(const std::uint64_t* words, std::size_t field_pos,
              std::size_t len) {
    Unpack8Scalar(words, field_pos, width, 0, fields);
    const std::uint32_t last = fields[len - 1];
    for (std::size_t i = len; i < kGroupFields; ++i) fields[i] = last;
  }
  void Set(const std::uint32_t* padded, std::size_t /*len*/) {
    std::copy(padded, padded + kGroupFields, fields);
  }
  bool Has(std::uint32_t low) const {
    bool hit = false;
    for (std::size_t i = 0; i < kGroupFields; ++i) hit |= fields[i] == low;
    return hit;
  }

  int width;
  std::uint32_t fields[kGroupFields];
};

void DecodeLowbitsScalar(const LowbitsView& s, std::uint32_t* out) {
  DecodeLowbits<ScalarUnpack8, UnpackBitsScalar>(s, out);
}

std::size_t FilterLowbitsScalar(const LowbitsView& s,
                                const std::uint32_t* candidates,
                                std::size_t count, std::uint32_t* out) {
  return FilterLowbits<ScalarGroup>(s, candidates, count, out);
}

#if FSI_SIMD_X86

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

// One group of 8 fields for one stream's field width, the per-width
// vectors built once per call.  kWide picks the path for widths 25-32;
// callers choose it once per call, so the loop over groups holds one
// path's constants in registers.
//
// Widths <= 24: the 8 fields plus the start offset span at most
// 63 + 8*24 = 255 bits, so the 32 bytes at word bp >> 6 hold all of them.
// Lane i needs the 4 stream bytes from r = ((bp & 63) + i*width) >> 3 on;
// stream byte k of the MSB-first words sits at memory byte k ^ 7, so the
// lane's byte j (little-endian) comes from memory byte (r + 3 - j) ^ 7.
// vpshufb only shuffles within 128-bit lanes, so two shuffles gather the
// bytes, one over the window's low 16 bytes and one over its high 16, each
// copied into both lanes by vpermq; bit 4 of the index steers the source
// by steering the 0x80 zeroing bit.  Then each lane shifts its field to the
// top (vpsllvd by its in-byte offset) and down to the low `width` bits.
//
// Wider fields take two 4-lane UnpackBlock4Avx2 blocks; the second one's
// window starts at most two words after the first.  Either way the unpack
// reads words [bp >> 6, (bp >> 6) + 6).
template <bool kWide>
class Avx2Unpack8 {
 public:
  __attribute__((target("avx2"))) explicit Avx2Unpack8(int width)
      : width_(width),
        lane_bits_(_mm256_mullo_epi32(
            _mm256_set1_epi32(width),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))),
        wide_lane_bits_(_mm256_setr_epi64x(0, width, 2 * width, 3 * width)),
        // A count of 32 (width 0) clears the lane.
        down_(_mm_cvtsi32_si128(32 - width)),
        // Byte j of a lane gets 0x70 + 3 - j on top of r: the low nibble
        // is then r + 3 - j and its bit 4 lands in bit 7 (r + 3 <= 31).
        // The ^ 7 commutes with the add (it touches bits 0-2 only).
        byte_bias_(_mm256_set1_epi32(0x70717273)),
        from_lo_(_mm256_set1_epi8(0x07)),
        from_hi_(_mm256_set1_epi8(static_cast<char>(0x87))) {
    assert(kWide ? width > 24 && width <= 32 : width >= 0 && width <= 24);
  }

  int width() const { return width_; }

  __attribute__((target("avx2"), always_inline)) __m256i Vec(
      const std::uint64_t* words, std::size_t bp, std::uint32_t base) const {
    if constexpr (kWide) {
      return _mm256_setr_m128i(
          UnpackBlock4Avx2(words, bp, width_, base, wide_lane_bits_),
          UnpackBlock4Avx2(words, bp + 4 * static_cast<std::size_t>(width_),
                           width_, base, wide_lane_bits_));
    } else {
      const __m256i bcast = _mm256_setr_epi8(
          0, 0, 0, 0, 4, 4, 4, 4, 8, 8, 8, 8, 12, 12, 12, 12,  //
          0, 0, 0, 0, 4, 4, 4, 4, 8, 8, 8, 8, 12, 12, 12, 12);
      const __m256i off = _mm256_add_epi32(
          _mm256_set1_epi32(static_cast<int>(bp & 63)), lane_bits_);
      const __m256i idx = _mm256_add_epi8(
          _mm256_shuffle_epi8(_mm256_srli_epi32(off, 3), bcast), byte_bias_);
      const __m256i win = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(words + (bp >> 6)));
      const __m256i bytes = _mm256_or_si256(
          _mm256_shuffle_epi8(_mm256_permute4x64_epi64(win, 0x44),
                              _mm256_xor_si256(idx, from_lo_)),
          _mm256_shuffle_epi8(_mm256_permute4x64_epi64(win, 0xEE),
                              _mm256_xor_si256(idx, from_hi_)));
      const __m256i top = _mm256_sllv_epi32(
          bytes, _mm256_and_si256(off, _mm256_set1_epi32(7)));
      return _mm256_add_epi32(_mm256_srl_epi32(top, down_),
                              _mm256_set1_epi32(static_cast<int>(base)));
    }
  }

  __attribute__((target("avx2"))) void operator()(
      const std::uint64_t* words, std::size_t bp, std::uint32_t base,
      std::uint32_t* out) const {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                        Vec(words, bp, base));
  }

 private:
  // The constants are members too, so a loop keeps them in registers
  // instead of rebuilding them for every group.
  int width_;
  __m256i lane_bits_;       // lane i: i * width
  __m256i wide_lane_bits_;  // 64-bit lane i < 4: i * width (width > 24)
  __m128i down_;
  __m256i byte_bias_;
  __m256i from_lo_;
  __m256i from_hi_;
};

/// Calls fn(std::bool_constant<width > 24>{}): the one place a call picks
/// its Avx2Unpack8 path.
template <class Fn>
inline decltype(auto) WithUnpackPath(int width, Fn&& fn) {
  if (width > 24) return fn(std::true_type{});
  return fn(std::false_type{});
}

// Whole 8-field chunks while the six words a chunk may read are in bounds;
// the scalar loop finishes the tail, so the kernel never reads past
// words + words_len.  Runs under 16 fields (a compressed group is ~8) lose
// to the vector setup and go straight to the scalar loop.
__attribute__((target("avx2"), flatten)) void UnpackBitsAvx2(
    const std::uint64_t* words, std::size_t words_len, std::size_t bit_offset,
    int width, std::uint32_t base, std::uint32_t* out, std::size_t count) {
  std::size_t p = bit_offset;
  std::size_t i = 0;
  if (count >= 16) {
    const std::size_t chunk_bits = 8 * static_cast<std::size_t>(width);
    WithUnpackPath(width, [&](auto wide) {
      const Avx2Unpack8<decltype(wide)::value> unpack8(width);
      for (; i + 8 <= count && (p >> 6) + 6 <= words_len;
           i += 8, p += chunk_bits) {
        unpack8(words, p, base, out + i);
      }
    });
  }
  UnpackBitsScalar(words, words_len, p, width, base, out + i, count - i);
}

/// The AVX2 probe over groups of up to 16: the fields in two registers and
/// a mask of each one's live lanes; membership is two cmpeqs and one testz.
template <bool kWide>
struct Avx2Group {
  static constexpr std::size_t kFields = 2 * kGroupFields;

  __attribute__((target("avx2"))) explicit Avx2Group(int width)
      : unpack(width) {}
  __attribute__((target("avx2"))) void Unpack(const std::uint64_t* words,
                                              std::size_t field_pos,
                                              std::size_t len) {
    lo = unpack.Vec(words, field_pos, 0);
    if (len > kGroupFields) {
      hi = unpack.Vec(words,
                      field_pos + kGroupFields *
                                      static_cast<std::size_t>(unpack.width()),
                      0);
    }
    SetLive(len);
  }
  __attribute__((target("avx2"))) void Set(const std::uint32_t* padded,
                                           std::size_t len) {
    lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(padded));
    hi = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(padded + kGroupFields));
    SetLive(len);
  }
  __attribute__((target("avx2"))) bool Has(std::uint32_t low) const {
    const __m256i x = _mm256_set1_epi32(static_cast<int>(low));
    const __m256i hit =
        _mm256_or_si256(_mm256_and_si256(_mm256_cmpeq_epi32(lo, x), live_lo),
                        _mm256_and_si256(_mm256_cmpeq_epi32(hi, x), live_hi));
    return !_mm256_testz_si256(hit, hit);
  }
  __attribute__((target("avx2"))) void SetLive(std::size_t len) {
    const __m256i n = _mm256_set1_epi32(static_cast<int>(len));
    live_lo = _mm256_cmpgt_epi32(n, _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    live_hi = _mm256_cmpgt_epi32(
        n, _mm256_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15));
  }

  Avx2Unpack8<kWide> unpack;
  // Zero-initialized: gcc's -Wmaybe-uninitialized cannot see that Has()
  // only runs after Unpack() or Set().
  __m256i lo{};
  __m256i hi{};
  __m256i live_lo{};
  __m256i live_hi{};
};

__attribute__((target("avx2"), flatten)) void DecodeLowbitsAvx2(
    const LowbitsView& s, std::uint32_t* out) {
  WithUnpackPath(s.low_bits, [&](auto wide) {
    DecodeLowbits<Avx2Unpack8<decltype(wide)::value>, UnpackBitsAvx2>(s, out);
  });
}

__attribute__((target("avx2"), flatten)) std::size_t FilterLowbitsAvx2(
    const LowbitsView& s, const std::uint32_t* candidates, std::size_t count,
    std::uint32_t* out) {
  return WithUnpackPath(s.low_bits, [&](auto wide) {
    return FilterLowbits<Avx2Group<decltype(wide)::value>>(s, candidates,
                                                           count, out);
  });
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

// g and g^-1 on 4 x 64-bit lanes.  A round maps a half h < 2^16 (the
// domain has at most 32 bits) to Mix64(h ^ key) & mask.  Since h has no
// bit at or above 16, x = h ^ key keeps the key's bits from 16 up, so
// x >> 30 == key >> 30 and Mix64's first step x ^ (x >> 30) equals
// K_hi + u with K = key ^ (key >> 30), K_hi = K & ~0xFFFF and
// u = h ^ (K & 0xFFFF) < 2^16.  Its product with kMix64Mul1 is then the
// per-key constant K_hi * Mul1 plus u * Mul1, which is two vpmuludq
// (u times each 32-bit half of Mul1).  The second multiply needs the
// full low 64 bits of its product: three vpmuludq over the 32-bit halves.
class Avx2Feistel {
 public:
  __attribute__((target("avx2"))) explicit Avx2Feistel(
      const FeistelPermutation& g)
      : half_bits_(_mm_cvtsi32_si128(g.half_bits())),
        mask_(_mm256_set1_epi64x(static_cast<long long>(
            (std::uint64_t{1} << g.half_bits()) - 1))),
        mul1_lo_(_mm256_set1_epi64x(static_cast<long long>(kMix64Mul1 &
                                                           0xFFFFFFFFu))),
        mul1_hi_(_mm256_set1_epi64x(static_cast<long long>(kMix64Mul1 >> 32))),
        mul2_lo_(_mm256_set1_epi64x(static_cast<long long>(kMix64Mul2 &
                                                           0xFFFFFFFFu))),
        mul2_hi_(
            _mm256_set1_epi64x(static_cast<long long>(kMix64Mul2 >> 32))) {
    for (int r = 0; r < FeistelPermutation::kRounds; ++r) {
      const std::uint64_t k = g.key(r) ^ (g.key(r) >> 30);
      key_lo_[r] = _mm256_set1_epi64x(static_cast<long long>(k & 0xFFFF));
      key_hi_mul_[r] = _mm256_set1_epi64x(
          static_cast<long long>((k & ~std::uint64_t{0xFFFF}) * kMix64Mul1));
    }
  }

  /// g (or g^-1 when kInverse) of the 4 x 4 values in x[], in place; each
  /// 64-bit lane holds one value below 2^32.  The four vectors are
  /// independent chains, interleaved round by round.
  template <bool kInverse>
  __attribute__((target("avx2"), always_inline)) void Permute(
      __m256i (&x)[4]) const {
    __m256i left[4], right[4];
    for (int j = 0; j < 4; ++j) {
      left[j] = _mm256_srl_epi64(x[j], half_bits_);
      right[j] = _mm256_and_si256(x[j], mask_);
    }
    for (int i = 0; i < FeistelPermutation::kRounds; ++i) {
      const int r = kInverse ? FeistelPermutation::kRounds - 1 - i : i;
      for (int j = 0; j < 4; ++j) {
        // Apply: (l, r) -> (r, l ^ F(r)); Invert: (l, r) -> (r ^ F(l), l).
        if constexpr (kInverse) {
          const __m256i prev = _mm256_xor_si256(right[j], Round(left[j], r));
          right[j] = left[j];
          left[j] = prev;
        } else {
          const __m256i next = _mm256_xor_si256(left[j], Round(right[j], r));
          left[j] = right[j];
          right[j] = next;
        }
      }
    }
    for (int j = 0; j < 4; ++j) {
      x[j] = _mm256_or_si256(_mm256_sll_epi64(left[j], half_bits_), right[j]);
    }
  }

 private:
  __attribute__((target("avx2"), always_inline)) __m256i Round(
      __m256i h, int r) const {
    const __m256i u = _mm256_xor_si256(h, key_lo_[r]);
    const __m256i y = _mm256_add_epi64(
        _mm256_add_epi64(key_hi_mul_[r], _mm256_mul_epu32(u, mul1_lo_)),
        _mm256_slli_epi64(_mm256_mul_epu32(u, mul1_hi_), 32));
    const __m256i b = _mm256_xor_si256(y, _mm256_srli_epi64(y, 27));
    const __m256i cross =
        _mm256_add_epi64(_mm256_mul_epu32(b, mul2_hi_),
                         _mm256_mul_epu32(_mm256_srli_epi64(b, 32), mul2_lo_));
    const __m256i z = _mm256_add_epi64(_mm256_mul_epu32(b, mul2_lo_),
                                       _mm256_slli_epi64(cross, 32));
    return _mm256_and_si256(_mm256_xor_si256(z, _mm256_srli_epi64(z, 31)),
                            mask_);
  }

  __m128i half_bits_;
  __m256i mask_;
  __m256i mul1_lo_, mul1_hi_, mul2_lo_, mul2_hi_;
  __m256i key_lo_[FeistelPermutation::kRounds];      // K & 0xFFFF
  __m256i key_hi_mul_[FeistelPermutation::kRounds];  // (K & ~0xFFFF) * Mul1
};

/// g (or g^-1) of the 16 values at vals, in place.
template <bool kInverse>
__attribute__((target("avx2"), always_inline)) inline void Permute16Avx2(
    const Avx2Feistel& f, std::uint32_t* vals) {
  const __m256i pack_idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  __m256i x[4];
  for (int j = 0; j < 4; ++j) {
    x[j] = _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(vals + 4 * j)));
  }
  f.Permute<kInverse>(x);
  for (int j = 0; j < 4; ++j) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(vals + 4 * j),
                     _mm256_castsi256_si128(
                         _mm256_permutevar8x32_epi32(x[j], pack_idx)));
  }
}

// 16 values per iteration; the last 1-15 go through a zero-padded block
// (0 is in every domain).  Domains over 32 bits take the scalar loop.
template <bool kInverse>
__attribute__((target("avx2"), always_inline)) inline void PermuteAvx2Impl(
    const FeistelPermutation& g, std::uint32_t* vals, std::size_t count) {
  const Avx2Feistel f(g);
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) Permute16Avx2<kInverse>(f, vals + i);
  if (i < count) {
    std::uint32_t tail[16] = {};
    std::copy(vals + i, vals + count, tail);
    Permute16Avx2<kInverse>(f, tail);
    std::copy(tail, tail + (count - i), vals + i);
  }
}

__attribute__((target("avx2"))) void PermuteAvx2(const FeistelPermutation& g,
                                                 bool inverse,
                                                 std::uint32_t* vals,
                                                 std::size_t count) {
  if (g.domain_bits() > 32 || count == 0) {
    PermuteScalar(g, inverse, vals, count);
  } else if (inverse) {
    PermuteAvx2Impl<true>(g, vals, count);
  } else {
    PermuteAvx2Impl<false>(g, vals, count);
  }
}

#endif  // FSI_SIMD_X86

constexpr DecodeKernels kScalarDecodeTable = {
    Level::kScalar,      UnpackBitsScalar, DecodeLowbitsScalar,
    FilterLowbitsScalar, PrefixSumScalar,     PermuteScalar,
};

#if FSI_SIMD_X86
constexpr DecodeKernels kAvx2DecodeTable = {
    Level::kAvx2,      UnpackBitsAvx2, DecodeLowbitsAvx2,
    FilterLowbitsAvx2, PrefixSumAvx2,  PermuteAvx2,
};
#endif

}  // namespace

const DecodeKernels& ScalarDecodeKernels() { return kScalarDecodeTable; }

const DecodeKernels& DecodeKernelsForLevel(Level level) {
  // Never a table the CPU cannot execute.
#if FSI_SIMD_X86
  if (level == Level::kAvx2 && DetectCpuLevel() == Level::kAvx2) {
    return kAvx2DecodeTable;
  }
#endif
  (void)level;
  return kScalarDecodeTable;
}

const DecodeKernels& DispatchedDecodeKernels() {
  // Resolved once: ActiveLevel() folds in the FSI_FORCE_SCALAR override.
  static const DecodeKernels& kernels = DecodeKernelsForLevel(ActiveLevel());
  return kernels;
}

}  // namespace fsi::simd
