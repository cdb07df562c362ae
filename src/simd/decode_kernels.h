// Vectorized decode kernels for the compressed structures (Section 4.1 /
// Appendix B), with runtime dispatch.
//
// The compressed block formats bottom out in a few dense inner loops:
//
//   unpack_bits     fixed-width bit-field extraction — the Lowbits codec
//                   stores each in-group value as exactly `low_bits` bits,
//                   MSB-first (codec/bit_stream.h).  The AVX2 tier runs
//                   the 8-field group unpack below over whole 8-field
//                   chunks and finishes the tail with the scalar loop.
//   lowbits_decode  a whole Lowbits stream to its ascending g-values, and
//   lowbits_filter  ascending candidate g-values probed against a Lowbits
//                   stream group by group — the planner's g-space steps.
//                   One call per step, not per group.  Each group header
//                   is found from the one before it, so the decode walks
//                   four independent chains of decode blocks at once when
//                   the stream has no image words (every planner set) and
//                   at least 16 blocks: with m = 0 the elements in front
//                   of block b number (skips[b] - 8b) / (w + 1), so each
//                   chain knows where its output starts without walking
//                   the blocks before it.  Both tiers share that loop.
//                   The AVX2 tier picks its field-width path (<= 24 or
//                   25-32 bits) once per call and inlines an 8-field
//                   group unpack: for widths <= 24 one 32-byte load,
//                   two vpshufb byte gathers and 32-bit shifts (~20 uops
//                   per 8 fields); wider fields take two 4-lane blocks,
//                   each selecting its lanes' word pairs
//                   from one 256-bit window with vpermd and aligning them
//                   with per-lane variable 64-bit shifts (vpsllvq/vpsrlvq).
//                   A probe tests groups of up to 16 members as two
//                   vectors: two cmpeqs and one testz against the
//                   live-lane masks; longer groups are walked.
//   prefix_sum      gap -> absolute conversion for the Elias γ/δ codecs:
//                   the unary/low-bit decode is inherently serial, but the
//                   running sum over the decoded gaps vectorizes with the
//                   classic shift-add prefix network (8 lanes under AVX2).
//   permute         g or g^-1 (hash/feistel.h) over a uint32 array in
//                   place: set builds order by g, and g-space queries map
//                   their results back with g^-1.  The scalar tier is the
//                   per-element Apply/Invert loop.  The AVX2 tier runs 16
//                   values per iteration as four 4 x 64-bit vectors for
//                   any even domain <= 32 bits: a round's input half has
//                   at most 16 bits, so in Mix64(half ^ key) the high bits
//                   are the key's, and the first multiply becomes a
//                   per-key constant plus two vpmuludq (three more give
//                   the second multiply's low 64 bits).
//
// Same contract as simd/intersect_kernels.h: one function-pointer table
// per tier (scalar and AVX2), resolved once per process from CPUID, the
// AVX2 tier bit-identical to the scalar reference, FSI_FORCE_SCALAR
// honored, and the per-algorithm "simd=auto|off" registry option
// selecting between the dispatched and the scalar table.

#ifndef FSI_SIMD_DECODE_KERNELS_H_
#define FSI_SIMD_DECODE_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "hash/feistel.h"
#include "simd/cpu_features.h"
#include "simd/intersect_kernels.h"  // simd::Mode / ParseMode

namespace fsi::simd {

/// Groups per Lowbits decode block: one skip-directory entry (the bit
/// offset of the block's first group header) every kLowbitsSkipStride
/// groups.
inline constexpr std::uint64_t kLowbitsSkipStride = 8;

/// Group-index entry for a header too far past its block's skip entry
/// (16 bits hold offsets up to 0xFFFE); the probe walks the headers.
inline constexpr std::uint16_t kNoGroupOffset = 0xFFFF;

/// One Lowbits stream (core/compressed_scan.h) as the whole-call kernels
/// read it: 2^t groups, each a unary length, `image_bits` bits of hash
/// images when the length is non-zero, then `low_bits`-bit fields; group
/// z's g-values are (z << low_bits) | field.  The stream must have passed
/// CompressedScanSet::Validate, so no kernel bounds-checks a header.
struct LowbitsView {
  const std::uint64_t* words = nullptr;
  std::size_t n_words = 0;
  std::size_t n = 0;  // elements
  int t = 0;
  int low_bits = 32;  // t + low_bits <= 32
  std::size_t image_bits = 0;
  /// skips[i]: bit offset of group (i * kLowbitsSkipStride)'s header.
  const std::uint64_t* skips = nullptr;
  /// Per group: its header's offset past its block's skip entry, or
  /// kNoGroupOffset.  nullptr when the set carries no index: every probe
  /// then walks the headers in front of its group.
  const std::uint16_t* group_offsets = nullptr;
};

/// The decode kernel table.  All entries are non-null; all variants of one
/// entry produce bit-identical results.
struct DecodeKernels {
  Level level;

  /// Extracts `count` fixed-width bit fields, MSB-first, starting at
  /// absolute bit offset `bit_offset` inside words[0, words_len), adds
  /// `base` to each and stores them to out[0, count).  `width` must be in
  /// [0, 32]; width 0 stores `base` everywhere.  The kernel never reads at
  /// or past words + words_len — callers guarantee
  /// bit_offset + count * width <= words_len * 64.
  void (*unpack_bits)(const std::uint64_t* words, std::size_t words_len,
                      std::size_t bit_offset, int width, std::uint32_t base,
                      std::uint32_t* out, std::size_t count);

  /// Decodes the whole stream into out[0, s.n) in ascending g-order.
  /// Writes nothing at or past out + s.n.
  void (*lowbits_decode)(const LowbitsView& s, std::uint32_t* out);

  /// Writes to `out`, in order, the candidates[0, count) (ascending
  /// g-values) that are members of the stream, and returns how many.
  /// Groups no candidate falls in are never read.  `out` may alias
  /// `candidates`.
  std::size_t (*lowbits_filter)(const LowbitsView& s,
                                const std::uint32_t* candidates,
                                std::size_t count, std::uint32_t* out);

  /// In-place inclusive prefix sum with carry-in:
  /// vals[i] <- base + vals[0] + ... + vals[i] (uint32 wraparound
  /// semantics, identical across tiers).
  void (*prefix_sum)(std::uint32_t* vals, std::size_t count,
                     std::uint32_t base);

  /// vals[i] <- g(vals[i]), or g^-1(vals[i]) when `inverse`, for every i
  /// in [0, count), truncated to 32 bits.  Every value must lie in g's
  /// domain.
  void (*permute)(const FeistelPermutation& g, bool inverse,
                  std::uint32_t* vals, std::size_t count);
};

/// The portable scalar table (also the FSI_FORCE_SCALAR / simd=off path).
const DecodeKernels& ScalarDecodeKernels();

/// The process-wide table resolved once from ActiveLevel().
const DecodeKernels& DispatchedDecodeKernels();

/// Table for a mode: kAuto -> dispatched, kOff -> scalar.
inline const DecodeKernels& SelectDecode(Mode mode) {
  return mode == Mode::kOff ? ScalarDecodeKernels() : DispatchedDecodeKernels();
}

/// Table for an explicit level — unit tests sweep every tier supported by
/// the machine.  Levels above DetectCpuLevel() fall back to the detected
/// one (never returns a table the CPU cannot execute).
const DecodeKernels& DecodeKernelsForLevel(Level level);

}  // namespace fsi::simd

#endif  // FSI_SIMD_DECODE_KERNELS_H_
