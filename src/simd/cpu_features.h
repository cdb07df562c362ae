// Runtime CPU feature detection for the SIMD kernel layer.
//
// The paper's central device is word-level parallelism: comparing one
// element against a group of w elements in O(1) word operations.  AVX2
// lanes are the hardware realization of the same idea, so the hot inner
// loops (src/simd/intersect_kernels.h) ship in two tiers: portable scalar
// C++ and AVX2.  Which one runs is decided *once per process*, here:
//
//   * DetectCpuLevel()  — raw CPUID probe: the best level this machine
//                         can execute.
//   * ActiveLevel()     — the level the dispatched kernel table resolved
//                         to: DetectCpuLevel(), downgraded to kScalar when
//                         the FSI_FORCE_SCALAR environment variable is set
//                         (any value but "0" or empty).
//
// Binaries stay portable: every kernel is compiled with per-function
// target attributes, so an AVX2 code path can exist in a binary built
// with plain -O2 and is only entered after the CPUID check passes.

#ifndef FSI_SIMD_CPU_FEATURES_H_
#define FSI_SIMD_CPU_FEATURES_H_

#include <string_view>

namespace fsi::simd {

/// Instruction-set tiers the kernel layer implements, best last.
enum class Level {
  kScalar,  // portable C++ (also the FSI_FORCE_SCALAR / simd=off path,
            // and every CPU without AVX2)
  kAvx2,    // 256-bit lanes, 8 x uint32
};

/// Best level supported by the executing CPU (raw probe; ignores
/// FSI_FORCE_SCALAR).  Constant for the process lifetime.
Level DetectCpuLevel();

/// True when the FSI_FORCE_SCALAR environment variable is set to a value
/// other than "" or "0".  Read once, at first kernel-table resolution.
bool ForceScalarEnv();

/// The level the process-wide dispatched kernel table resolved to —
/// DetectCpuLevel() unless FSI_FORCE_SCALAR demoted it to kScalar.
/// Resolved on first call, constant afterwards (documented in
/// docs/ALGORITHMS.md: set the variable before the first query, not
/// mid-run).
Level ActiveLevel();

/// Human-readable level name: "scalar", "avx2".
std::string_view LevelName(Level level);

}  // namespace fsi::simd

#endif  // FSI_SIMD_CPU_FEATURES_H_
