// Vectorized inner-loop kernels for set intersection, with runtime dispatch.
//
// The paper's algorithms win by replacing element-vs-element comparisons
// with one word operation over a whole group ("compare an element against
// w elements in O(1)").  This layer applies the identical trick at the
// instruction level: the scan/merge/probe loops every algorithm bottoms
// out in are implemented twice — portable scalar C++ and AVX2 (8 x uint32
// lanes) — behind one function-pointer table.  The table is resolved once
// per process from CPUID (see simd/cpu_features.h; a CPU without AVX2 runs
// the scalar tier) and both variants are *bit-identical*: same output
// elements, same order, so algorithms can switch freely and the property
// tests assert equality directly.
//
// Five kernels cover the library's hot loops:
//
//   intersect_pair  block-wise merge intersection of two sorted unique
//                   arrays (baseline/merge, the RanGroupScan group merges).
//                   The AVX2 variant compares an 8-element block of each
//                   list all-against-all per step, then advances the
//                   block whose maximum is smaller — the classic
//                   branch-light block merge.
//   lower_bound     index of the first element >= x.  The AVX2 variant
//                   binary-searches down to a small window, then resolves it
//                   with broadcast-compare + popcount instead of the final
//                   branchy binary-search steps (baseline/baeza_yates).
//   gallop_ge       galloping search with the vectorized lower_bound as
//                   its probe (the delta fixup's base filter).
//   intersect_skewed
//                   the skewed-pair (SvS) step: every element of a short
//                   list looked up in a long one.  The AVX2 variant skips
//                   the long list by its 32-element blocks' last elements
//                   and settles each candidate with one broadcast compare
//                   over its block (after Lemire, Boytsov & Kurz): from
//                   16:1 to 4096:1 by 256-element superblocks and three
//                   halvings (their V3), otherwise by galloping over the
//                   block maxima.  The scalar variant is the classic
//                   per-candidate gallop_ge loop.
//   match_any       appends every a[i] present in b, in i-order; neither
//                   side need be sorted.  This is the RanGroupScan /
//                   IntGroup "group vs element" comparison: one broadcast
//                   compares an element against a whole group per step.
//
// Selection:
//   * ScalarKernels()      — always the portable implementations.
//   * DispatchedKernels()  — resolved once from the CPU, demoted to
//                            scalar when FSI_FORCE_SCALAR is set.
//   * Select(Mode)         — what algorithms call: kAuto -> dispatched,
//                            kOff -> scalar.  Exposed to users as the
//                            registry option "simd=auto|off" on Merge,
//                            SvS, BaezaYates, IntGroup, RanGroupScan and
//                            Hybrid specs.

#ifndef FSI_SIMD_INTERSECT_KERNELS_H_
#define FSI_SIMD_INTERSECT_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "simd/cpu_features.h"

namespace fsi::simd {

/// Per-algorithm kernel selection, settable via the registry option key
/// "simd" ("auto" or "off"/"scalar") on every wired algorithm spec.
enum class Mode {
  kAuto,  // use the process-wide dispatched table (CPU best, env override)
  kOff,   // force the scalar table for this algorithm instance
};

/// Parses a "simd=" option value; throws std::invalid_argument otherwise.
Mode ParseMode(std::string_view value);

/// The kernel table.  All entries are non-null; all variants of one entry
/// produce bit-identical results (same elements, same order).
struct Kernels {
  Level level;

  /// Appends the ascending intersection of two sorted duplicate-free
  /// arrays to *out.
  void (*intersect_pair)(const std::uint32_t* a, std::size_t na,
                         const std::uint32_t* b, std::size_t nb,
                         std::vector<std::uint32_t>* out);

  /// Index of the first element >= x in sorted[0, n); n when none.
  std::size_t (*lower_bound)(const std::uint32_t* sorted, std::size_t n,
                             std::uint32_t x);

  /// Galloping search from position lo: index of the first element >= x in
  /// sorted[lo, n); expected O(log distance).
  std::size_t (*gallop_ge)(const std::uint32_t* sorted, std::size_t n,
                           std::size_t lo, std::uint32_t x);

  /// Writes the elements of small[0, ns) that occur in large[0, nl) —
  /// std::set_intersection(small, large) — to out, ascending, and returns
  /// how many.  Both inputs sorted and duplicate-free.  `out` needs room
  /// for ns elements and may alias `small` (in-place filtering).  Never
  /// reads past small + ns or large + nl.
  std::size_t (*intersect_skewed)(const std::uint32_t* small, std::size_t ns,
                                  const std::uint32_t* large, std::size_t nl,
                                  std::uint32_t* out);

  /// Appends every a[i] that occurs anywhere in b[0, nb) to *out, in
  /// i-order.  Inputs need not be sorted; both must be duplicate-free for
  /// the result to be a set.
  void (*match_any)(const std::uint32_t* a, std::size_t na,
                    const std::uint32_t* b, std::size_t nb,
                    std::vector<std::uint32_t>* out);
};

/// The portable scalar table (also the FSI_FORCE_SCALAR / simd=off path).
const Kernels& ScalarKernels();

/// The process-wide table resolved once from ActiveLevel().
const Kernels& DispatchedKernels();

/// Table for a mode: kAuto -> DispatchedKernels(), kOff -> ScalarKernels().
inline const Kernels& Select(Mode mode) {
  return mode == Mode::kOff ? ScalarKernels() : DispatchedKernels();
}

/// True when the table executes vector instructions (not the scalar tier).
inline bool Vectorized(const Kernels& kernels) {
  return kernels.level != Level::kScalar;
}

/// Kernel table for an explicit level — kernel unit tests sweep every tier
/// supported by the machine.  Levels above DetectCpuLevel() fall back to
/// the detected one (never returns a table the CPU cannot execute).
const Kernels& KernelsForLevel(Level level);

}  // namespace fsi::simd

#endif  // FSI_SIMD_INTERSECT_KERNELS_H_
