#include "simd/cpu_features.h"

#include <cstdlib>

namespace fsi::simd {

namespace {

Level ProbeCpu() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  // __builtin_cpu_supports reads CPUID once and caches; cheap to call.
  return __builtin_cpu_supports("avx2") ? Level::kAvx2 : Level::kScalar;
#else
  // Non-x86 targets (or MSVC, which lacks per-function target attributes
  // for this dispatch style) run the portable scalar kernels.
  return Level::kScalar;
#endif
}

}  // namespace

Level DetectCpuLevel() {
  static const Level level = ProbeCpu();
  return level;
}

bool ForceScalarEnv() {
  static const bool forced = [] {
    const char* env = std::getenv("FSI_FORCE_SCALAR");
    return env != nullptr && env[0] != '\0' &&
           !(env[0] == '0' && env[1] == '\0');
  }();
  return forced;
}

Level ActiveLevel() {
  static const Level level =
      ForceScalarEnv() ? Level::kScalar : DetectCpuLevel();
  return level;
}

std::string_view LevelName(Level level) {
  switch (level) {
    case Level::kAvx2:
      return "avx2";
    case Level::kScalar:
    default:
      return "scalar";
  }
}

}  // namespace fsi::simd
