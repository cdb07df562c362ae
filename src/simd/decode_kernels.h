// Vectorized decode kernels for the compressed structures (Section 4.1 /
// Appendix B), with runtime dispatch.
//
// The compressed block formats bottom out in two dense inner loops:
//
//   unpack_bits  fixed-width bit-field extraction — the Lowbits codec
//                stores each in-group value as exactly `low_bits` bits,
//                MSB-first (codec/bit_stream.h).  The AVX2 tier unpacks
//                four fields per step with 64-bit gathers and per-lane
//                variable shifts (vpsllvq/vpsrlvq); per-lane variable
//                64-bit shifts do not exist below AVX2, so the SSE tier
//                keeps the scalar extraction loop.
//   unpack8      the same extraction for exactly one group of 8 fields
//                (the g-space decode and probe paths): no count loop, and
//                the AVX2 tier extracts all 8 from one or two windows.
//   prefix_sum   gap -> absolute conversion for the Elias γ/δ codecs:
//                the unary/low-bit decode is inherently serial, but the
//                running sum over the decoded gaps vectorizes with the
//                classic shift-add prefix network (4 lanes under SSE,
//                8 under AVX2).
//
// Same contract as simd/intersect_kernels.h: one function-pointer table
// per tier, resolved once per process from CPUID, every tier bit-identical
// to the scalar reference, FSI_FORCE_SCALAR honored, and the per-algorithm
// "simd=auto|off" registry option selecting between the dispatched and the
// scalar table.

#ifndef FSI_SIMD_DECODE_KERNELS_H_
#define FSI_SIMD_DECODE_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "simd/cpu_features.h"
#include "simd/intersect_kernels.h"  // simd::Mode / ParseMode

namespace fsi::simd {

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

  /// Extracts exactly 8 fixed-width bit fields, MSB-first, starting at
  /// absolute bit offset `bit_offset`, adds `base` to each and stores them
  /// to out[0, 8) — one Lowbits group (~8 elements) per call; callers
  /// that need fewer fields ignore the surplus.  `width` must be in
  /// [0, 32].  Callers guarantee (bit_offset >> 6) + 6 <= the number of
  /// words, so no tier needs a bounds check.
  void (*unpack8)(const std::uint64_t* words, std::size_t bit_offset,
                  int width, std::uint32_t base, std::uint32_t* out);

  /// In-place inclusive prefix sum with carry-in:
  /// vals[i] <- base + vals[0] + ... + vals[i] (uint32 wraparound
  /// semantics, identical across tiers).
  void (*prefix_sum)(std::uint32_t* vals, std::size_t count,
                     std::uint32_t base);
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
