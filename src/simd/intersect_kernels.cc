#include "simd/intersect_kernels.h"

#include <algorithm>
#include <stdexcept>
#include <string>

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
// bit-for-bit.  These are the library's original inner loops, hoisted here
// so algorithm code and kernel share one definition.
// ---------------------------------------------------------------------------

void IntersectPairScalar(const std::uint32_t* a, std::size_t na,
                         const std::uint32_t* b, std::size_t nb,
                         std::vector<std::uint32_t>* out) {
  const std::uint32_t* pa = a;
  const std::uint32_t* ea = a + na;
  const std::uint32_t* pb = b;
  const std::uint32_t* eb = b + nb;
  while (pa < ea && pb < eb) {
    std::uint32_t va = *pa;
    std::uint32_t vb = *pb;
    if (va == vb) {
      out->push_back(va);
      ++pa;
      ++pb;
    } else {
      // Branch-light advance: exactly one cursor moves.
      pa += (va < vb);
      pb += (vb < va);
    }
  }
}

std::size_t LowerBoundScalar(const std::uint32_t* sorted, std::size_t n,
                             std::uint32_t x) {
  return static_cast<std::size_t>(std::lower_bound(sorted, sorted + n, x) -
                                  sorted);
}

/// Exponential-probe bracketing shared by both gallop_ge tiers: writes the
/// half-open window [*win_lo, *win_lo + *win_len) that contains the first
/// element >= x (an empty window at `lo` when no probing is needed).  Each
/// tier resolves the window with its own lower_bound, so the bracketing
/// logic exists exactly once and the tiers cannot drift apart.
void GallopBracket(const std::uint32_t* sorted, std::size_t n, std::size_t lo,
                   std::uint32_t x, std::size_t* win_lo,
                   std::size_t* win_len) {
  if (lo >= n || sorted[lo] >= x) {
    *win_lo = lo;
    *win_len = 0;
    return;
  }
  // Double the step until we overshoot.
  std::size_t step = 1;
  std::size_t prev = lo;
  std::size_t cur = lo + 1;
  while (cur < n && sorted[cur] < x) {
    prev = cur;
    step *= 2;
    cur = lo + step;
  }
  if (cur > n) cur = n;
  *win_lo = prev + 1;
  *win_len = cur - prev - 1;
}

std::size_t GallopGeScalar(const std::uint32_t* sorted, std::size_t n,
                           std::size_t lo, std::uint32_t x) {
  std::size_t win_lo;
  std::size_t win_len;
  GallopBracket(sorted, n, lo, x, &win_lo, &win_len);
  return win_lo + LowerBoundScalar(sorted + win_lo, win_len, x);
}

std::size_t IntersectSkewedScalar(const std::uint32_t* small, std::size_t ns,
                                  const std::uint32_t* large, std::size_t nl,
                                  std::uint32_t* out) {
  // One gallop per candidate from a monotone cursor.  The write index never
  // passes the read index, so `out` may alias `small`.
  std::size_t count = 0;
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < ns; ++i) {
    const std::uint32_t x = small[i];
    cursor = GallopGeScalar(large, nl, cursor, x);
    if (cursor == nl) break;
    if (large[cursor] == x) out[count++] = x;
  }
  return count;
}

void MatchAnyScalar(const std::uint32_t* a, std::size_t na,
                    const std::uint32_t* b, std::size_t nb,
                    std::vector<std::uint32_t>* out) {
  for (std::size_t i = 0; i < na; ++i) {
    const std::uint32_t x = a[i];
    for (std::size_t j = 0; j < nb; ++j) {
      if (b[j] == x) {
        out->push_back(x);
        break;  // inputs are duplicate-free: at most one match
      }
    }
  }
}

#if FSI_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2 lookup tables (plain uint32 arrays — built without vector
// instructions so static initialization is safe on any CPU).
// ---------------------------------------------------------------------------

// mask (8 bits, one per 32-bit lane) -> permutevar8x32 index vector that
// packs the selected lanes to the front.  Unselected trailing lanes index
// lane 0; their values are garbage and are trimmed by the final resize.
struct Compact8Table {
  alignas(32) std::uint32_t idx[256][8];
  Compact8Table() {
    for (int mask = 0; mask < 256; ++mask) {
      int k = 0;
      for (int lane = 0; lane < 8; ++lane) {
        if (mask & (1 << lane)) idx[mask][k++] = static_cast<std::uint32_t>(lane);
      }
      for (; k < 8; ++k) idx[mask][k] = 0;
    }
  }
};

// Lane-rotation index vectors for permutevar8x32: rot[r][lane] = (lane+r)%8.
struct Rotate8Table {
  alignas(32) std::uint32_t idx[8][8];
  Rotate8Table() {
    for (int r = 0; r < 8; ++r) {
      for (int lane = 0; lane < 8; ++lane) {
        idx[r][lane] = static_cast<std::uint32_t>((lane + r) % 8);
      }
    }
  }
};

// Partial-load masks for _mm256_maskload_epi32: valid[r] has the first r
// lanes enabled.
struct LoadMask8Table {
  alignas(32) std::uint32_t idx[9][8];
  LoadMask8Table() {
    for (int r = 0; r <= 8; ++r) {
      for (int lane = 0; lane < 8; ++lane) {
        idx[r][lane] = lane < r ? 0xffffffffu : 0u;
      }
    }
  }
};

const Compact8Table kCompact8;
const Rotate8Table kRotate8;
const LoadMask8Table kLoadMask8;

// Bias making signed 32-bit compares order unsigned values.
constexpr std::uint32_t kSignBias = 0x80000000u;

// ---------------------------------------------------------------------------
// Block skipping for the AVX2 intersect_skewed.  Plain scalar code (no
// vector instructions); it inlines into IntersectSkewedAvx2.
// ---------------------------------------------------------------------------

// Elements settled by one broadcast compare (4 AVX2 registers), and the V3
// superblock of 8 blocks.
constexpr std::size_t kBlock = 32;
constexpr std::size_t kSuperBlock = 8 * kBlock;

// Start of the first kBlock-block at or after *cursor whose last element
// is >= x, or — when every remaining full block lies below x — a position
// with fewer than kBlock elements left.  Every element before the result
// is < x, so x, if present, lies in the returned block or in the tail.
// Advances *cursor to where the next (larger) candidate's search starts,
// short of this candidate's block, so the next search does not wait on
// this one's halvings.
//
// With `super` (candidates 16 to 4096 elements apart) the search steps
// 256-element superblocks and picks the block with three branch-free
// halvings (V3).  Otherwise it gallops over the block maxima: nearer
// candidates mostly sit in the cursor's own block, which the first
// compare settles, and farther ones keep the O(log(nl / ns)) bound per
// candidate that stepping loses.
inline std::size_t SkipToBlock(const std::uint32_t* large, std::size_t nl,
                               std::size_t* cursor, std::uint32_t x,
                               bool super) {
  std::size_t pos = *cursor;
  if (super) {
    while (pos + kSuperBlock <= nl && large[pos + kSuperBlock - 1] < x) {
      pos += kSuperBlock;
    }
    *cursor = pos;
    if (pos + kSuperBlock <= nl) {
      pos += large[pos + 4 * kBlock - 1] < x ? 4 * kBlock : 0;
      pos += large[pos + 2 * kBlock - 1] < x ? 2 * kBlock : 0;
      pos += large[pos + kBlock - 1] < x ? kBlock : 0;
      return pos;
    }
    // Under one superblock left: gallop over its blocks.
  }
  if (pos + kBlock > nl || large[pos + kBlock - 1] >= x) return pos;
  auto last = [&](std::size_t b) -> const std::uint32_t& {
    return large[pos + b * kBlock + kBlock - 1];
  };
  // Block lo lies below x; the answer is in (lo, lo + len], where block
  // lo + len is the first probe not below x or one past the last full
  // block.
  const std::size_t blocks = (nl - pos) / kBlock;
  std::size_t lo = 0;
  std::size_t step = 1;
  while (lo + step < blocks && last(lo + step) < x) {
    lo += step;
    step *= 2;
  }
  std::size_t len = std::min(step, blocks - lo);
  *cursor = pos + (lo + 1) * kBlock;
  while (len > 1) {  // branch-free halving
    const std::size_t half = len / 2;
    // Both possible next probes, so their misses overlap this one.
    __builtin_prefetch(&last(lo + (len - half) / 2));
    __builtin_prefetch(&last(lo + half + (len - half) / 2));
    lo += last(lo + half) < x ? half : 0;
    len -= half;
  }
  return pos + (lo + 1) * kBlock;
}

// ---------------------------------------------------------------------------
// AVX2 tier: 8 x uint32 lanes.  Every function carries a target attribute,
// so the translation unit builds at the baseline ISA and these bodies are
// only entered after the CPUID check in cpu_features.cc.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) void MatchAnyAvx2(
    const std::uint32_t* a, std::size_t na, const std::uint32_t* b,
    std::size_t nb, std::vector<std::uint32_t>* out) {
  for (std::size_t i = 0; i < na; ++i) {
    const std::uint32_t x = a[i];
    const __m256i broadcast = _mm256_set1_epi32(static_cast<int>(x));
    bool found = false;
    std::size_t j = 0;
    for (; j + 8 <= nb && !found; j += 8) {
      const __m256i group = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(b + j));
      const __m256i eq = _mm256_cmpeq_epi32(broadcast, group);
      found = _mm256_movemask_ps(_mm256_castsi256_ps(eq)) != 0;
    }
    if (!found && j < nb) {
      const std::size_t rem = nb - j;
      const __m256i mask = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(kLoadMask8.idx[rem]));
      const __m256i group = _mm256_maskload_epi32(
          reinterpret_cast<const int*>(b + j), mask);
      const __m256i eq = _mm256_cmpeq_epi32(broadcast, group);
      // Masked-out lanes load as 0 and would spuriously match x == 0;
      // keep only the valid lanes' compare bits.
      const int hits = _mm256_movemask_ps(_mm256_castsi256_ps(eq)) &
                       ((1 << rem) - 1);
      found = hits != 0;
    }
    if (found) out->push_back(x);
  }
}

__attribute__((target("avx2"))) std::size_t LowerBoundAvx2(
    const std::uint32_t* sorted, std::size_t n, std::uint32_t x) {
  // Binary-search down to a short window, then resolve the window with
  // broadcast-compare + popcount instead of the final branchy steps.
  std::size_t lo = 0;
  std::size_t len = n;
  while (len > 32) {
    const std::size_t half = len / 2;
    if (sorted[lo + half] < x) {
      lo += half + 1;
      len -= half + 1;
    } else {
      len = half;
    }
  }
  std::size_t less = 0;
  std::size_t j = 0;
  if (len >= 8) {  // skip the vector setup entirely for tiny windows
    const __m256i probe =
        _mm256_set1_epi32(static_cast<int>(x ^ kSignBias));
    const __m256i bias = _mm256_set1_epi32(static_cast<int>(kSignBias));
    for (; j + 8 <= len; j += 8) {
      const __m256i v = _mm256_xor_si256(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(sorted + lo + j)),
          bias);
      const int below = _mm256_movemask_ps(
          _mm256_castsi256_ps(_mm256_cmpgt_epi32(probe, v)));
      less += static_cast<std::size_t>(__builtin_popcount(
          static_cast<unsigned>(below)));
    }
  }
  for (; j < len; ++j) less += (sorted[lo + j] < x) ? 1 : 0;
  return lo + less;
}

__attribute__((target("avx2"))) std::size_t GallopGeAvx2(
    const std::uint32_t* sorted, std::size_t n, std::size_t lo,
    std::uint32_t x) {
  std::size_t win_lo;
  std::size_t win_len;
  GallopBracket(sorted, n, lo, x, &win_lo, &win_len);
  return win_lo + LowerBoundAvx2(sorted + win_lo, win_len, x);
}

// True when x is one of block[0, kBlock): four 8-lane equality compares
// OR'd together, one testz.
__attribute__((target("avx2"))) inline bool BlockHasAvx2(
    const std::uint32_t* block, std::uint32_t x) {
  const __m256i key = _mm256_set1_epi32(static_cast<int>(x));
  const __m256i* p = reinterpret_cast<const __m256i*>(block);
  const __m256i eq = _mm256_or_si256(
      _mm256_or_si256(_mm256_cmpeq_epi32(key, _mm256_loadu_si256(p)),
                      _mm256_cmpeq_epi32(key, _mm256_loadu_si256(p + 1))),
      _mm256_or_si256(_mm256_cmpeq_epi32(key, _mm256_loadu_si256(p + 2)),
                      _mm256_cmpeq_epi32(key, _mm256_loadu_si256(p + 3))));
  return !_mm256_testz_si256(eq, eq);
}

// Each candidate skips to its block and is settled by BlockHasAvx2 and a
// branch-free write; once under one block is left, a scalar merge
// finishes.  The write cursor never passes the read index, so `out` may
// alias `small`.  `flatten` inlines SkipToBlock and BlockHasAvx2.
__attribute__((target("avx2"), flatten)) std::size_t IntersectSkewedAvx2(
    const std::uint32_t* small, std::size_t ns, const std::uint32_t* large,
    std::size_t nl, std::uint32_t* out) {
  const bool super = nl / 16 >= ns && nl / 4096 < ns;
  std::uint32_t* dst = out;
  std::size_t cursor = 0;
  std::size_t pos = 0;
  std::size_t i = 0;
  for (; i < ns; ++i) {
    const std::uint32_t x = small[i];
    pos = SkipToBlock(large, nl, &cursor, x, super);
    if (pos + kBlock > nl) break;  // under one block left
    *dst = x;                      // kept only on a hit
    dst += BlockHasAvx2(large + pos, x);
  }
  while (i < ns && pos < nl) {
    const std::uint32_t x = small[i];
    const std::uint32_t y = large[pos];
    if (x == y) {
      *dst++ = x;
      ++i;
      ++pos;
    } else {
      i += x < y;
      pos += y < x;
    }
  }
  return static_cast<std::size_t>(dst - out);
}

__attribute__((target("avx2"))) void IntersectPairAvx2(
    const std::uint32_t* a, std::size_t na, const std::uint32_t* b,
    std::size_t nb, std::vector<std::uint32_t>* out) {
  if (na == 0 || nb == 0) return;
  // Short-side cases (the RanGroupScan group merges live here: expected
  // group width ~8): probe each element of the shorter sorted side against
  // the longer one with one broadcast-compare per 8 elements.  Emitting in
  // the short side's order is ascending, exactly the merge output.
  constexpr std::size_t kShort = 16;
  if (na <= kShort || nb <= kShort) {
    if (na <= nb) {
      MatchAnyAvx2(a, na, b, nb, out);
    } else {
      MatchAnyAvx2(b, nb, a, na, out);
    }
    return;
  }
  // Block-wise merge: compare an 8-element block of each list
  // all-against-all (8 lane rotations), pack the matches, then advance the
  // block whose maximum is smaller.  A value matches in at most one block
  // pair and blocks advance monotonically, so matches are emitted exactly
  // once, in ascending order — identical to the two-pointer merge.
  const std::size_t base = out->size();
  out->resize(base + std::min(na, nb) + 8);  // +8: packed-store slack
  std::uint32_t* dst0 = out->data() + base;
  std::uint32_t* dst = dst0;
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia + 8 <= na && ib + 8 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + ia));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + ib));
    const std::uint32_t amax = a[ia + 7];
    const std::uint32_t bmax = b[ib + 7];
    __m256i eq = _mm256_cmpeq_epi32(va, vb);
    for (int r = 1; r < 8; ++r) {
      const __m256i rot = _mm256_permutevar8x32_epi32(
          vb, _mm256_load_si256(
                  reinterpret_cast<const __m256i*>(kRotate8.idx[r])));
      eq = _mm256_or_si256(eq, _mm256_cmpeq_epi32(va, rot));
    }
    const int mask = _mm256_movemask_ps(_mm256_castsi256_ps(eq));
    const __m256i packed = _mm256_permutevar8x32_epi32(
        va, _mm256_load_si256(
                reinterpret_cast<const __m256i*>(kCompact8.idx[mask])));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), packed);
    dst += __builtin_popcount(static_cast<unsigned>(mask));
    ia += (amax <= bmax) ? 8 : 0;
    ib += (bmax <= amax) ? 8 : 0;
  }
  out->resize(base + static_cast<std::size_t>(dst - dst0));
  IntersectPairScalar(a + ia, na - ia, b + ib, nb - ib, out);
}

#endif  // FSI_SIMD_X86

constexpr Kernels kScalarTable = {
    Level::kScalar,        IntersectPairScalar, LowerBoundScalar,
    GallopGeScalar,        IntersectSkewedScalar, MatchAnyScalar,
};

#if FSI_SIMD_X86
constexpr Kernels kAvx2Table = {
    Level::kAvx2,  IntersectPairAvx2,   LowerBoundAvx2,
    GallopGeAvx2,  IntersectSkewedAvx2, MatchAnyAvx2,
};
#endif

}  // namespace

Mode ParseMode(std::string_view value) {
  if (value == "auto" || value == "on" || value == "1") return Mode::kAuto;
  if (value == "off" || value == "scalar" || value == "0") return Mode::kOff;
  throw std::invalid_argument("simd: expected 'auto' or 'off', got '" +
                              std::string(value) + "'");
}

const Kernels& ScalarKernels() { return kScalarTable; }

const Kernels& KernelsForLevel(Level level) {
  // Never a table the CPU cannot execute.
#if FSI_SIMD_X86
  if (level == Level::kAvx2 && DetectCpuLevel() == Level::kAvx2) {
    return kAvx2Table;
  }
#endif
  (void)level;
  return kScalarTable;
}

const Kernels& DispatchedKernels() {
  // Resolved once: ActiveLevel() folds in the FSI_FORCE_SCALAR override.
  static const Kernels& kernels = KernelsForLevel(ActiveLevel());
  return kernels;
}

}  // namespace fsi::simd
