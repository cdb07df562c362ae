// Deterministic pseudo-random number generation.
//
// Every randomized component of the library (hash-function families, the
// Feistel permutation, workload generators) is seeded explicitly so that
// experiments and tests are exactly reproducible.  We implement SplitMix64
// (for seeding / mixing) and xoshiro256** (general-purpose stream); both are
// public-domain algorithms by Blackman & Vigna.

#ifndef FSI_UTIL_RNG_H_
#define FSI_UTIL_RNG_H_

#include <cstdint>
#include <limits>

namespace fsi {

/// SplitMix64: a tiny, high-quality 64-bit mixer.  Useful both as a stream
/// generator and as a finalizer for seeding other generators.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Mix64's two multipliers (SplitMix64's finalizer).
inline constexpr std::uint64_t kMix64Mul1 = 0xBF58476D1CE4E5B9ULL;
inline constexpr std::uint64_t kMix64Mul2 = 0x94D049BB133111EBULL;

/// Stateless mixing of a 64-bit value (one SplitMix64 step without the
/// golden-ratio increment).
constexpr std::uint64_t Mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * kMix64Mul1;
  z = (z ^ (z >> 27)) * kMix64Mul2;
  return z ^ (z >> 31);
}

/// xoshiro256**: fast all-purpose generator with 256-bit state.
/// Satisfies the UniformRandomBitGenerator concept so it can be used with
/// <random> distributions.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Xoshiro256(std::uint64_t seed) : s_{} {
    SplitMix64 sm(seed);
    for (auto& word : s_) word = sm.Next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() { return Next(); }

  constexpr std::uint64_t Next() {
    const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) using Lemire's multiply-shift reduction
  /// (slightly biased for huge bounds; negligible for our use).
  constexpr std::uint64_t Below(std::uint64_t bound) {
    __extension__ using Uint128 = unsigned __int128;
    return static_cast<std::uint64_t>((static_cast<Uint128>(Next()) * bound) >>
                                      64);
  }

  /// Uniform double in [0, 1).
  constexpr double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace fsi

#endif  // FSI_UTIL_RNG_H_
