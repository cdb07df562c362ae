// A bijective pseudo-random permutation g : Σ → Σ.
//
// Section 3.2.1 of the paper chooses g as "a random permutation of Σ"; the
// experimental setup (Section 4) uses "a random permutation of the document
// IDs".  A permutation — rather than a mere hash — matters in three places:
//   1. the multi-resolution structure orders elements by g(x), so every
//      group L^z_i = {x : g_t(x) = z} is a *contiguous interval*;
//   2. HashBin binary-searches on g(x) inside a group (A.6.1), which needs
//      g to be injective;
//   3. the Lowbits compression (Appendix B) stores g(x) mod 2^(b-t) and
//      reconstructs g(x) exactly by prepending z = g_t(x), then inverts g.
//
// Materializing a random permutation of a 2^32 universe is infeasible
// (16 GiB), so we build a keyed 4-round Feistel network: a classic
// construction that yields a bijection on {0,1}^b for any even b, with
// pseudo-random behaviour far exceeding the 2-universality our proofs need.
//
// Apply/Invert here are the per-element reference.  Whole arrays of
// 32-bit values go through the decode kernel table's `permute` entry
// (simd/decode_kernels.h), whose AVX2 tier runs 16 values at a time and
// equals this class bit for bit.

#ifndef FSI_HASH_FEISTEL_H_
#define FSI_HASH_FEISTEL_H_

#include <cstdint>
#include <stdexcept>

#include "util/rng.h"

namespace fsi {

/// Keyed bijection over {0,1}^domain_bits (domain_bits even, in [2, 64]).
class FeistelPermutation {
 public:
  static constexpr int kRounds = 4;

  /// `domain_bits` must be even; the permutation acts on [0, 2^domain_bits).
  FeistelPermutation(int domain_bits, std::uint64_t seed)
      : domain_bits_(ValidatedDomainBits(domain_bits)),
        half_bits_(domain_bits / 2),
        half_mask_((domain_bits == 64 ? ~std::uint64_t{0}
                                      : (std::uint64_t{1} << domain_bits) - 1) >>
                   (domain_bits / 2)) {
    SplitMix64 sm(seed);
    for (auto& k : keys_) k = sm.Next();
  }

  int domain_bits() const { return domain_bits_; }
  /// Bits per Feistel half: domain_bits / 2.
  int half_bits() const { return half_bits_; }
  /// Round r's key, r in [0, kRounds): round r maps a half h to
  /// Mix64(h ^ key(r)) & (2^half_bits - 1).
  std::uint64_t key(int r) const { return keys_[r]; }

  /// Domain size 2^domain_bits (saturates at 2^64 - epsilon semantics: for
  /// domain_bits == 64 callers should treat the domain as all of uint64).
  std::uint64_t domain_size() const {
    return domain_bits_ == 64 ? 0 : std::uint64_t{1} << domain_bits_;
  }

  /// Forward permutation g(x).  Precondition: x < 2^domain_bits.
  std::uint64_t Apply(std::uint64_t x) const {
    std::uint64_t left = x >> half_bits_;
    std::uint64_t right = x & half_mask_;
    for (int r = 0; r < kRounds; ++r) {
      std::uint64_t next = left ^ Round(right, keys_[r]);
      left = right;
      right = next;
    }
    return (left << half_bits_) | right;
  }

  /// Inverse permutation g^{-1}(y).  Precondition: y < 2^domain_bits.
  std::uint64_t Invert(std::uint64_t y) const {
    std::uint64_t left = y >> half_bits_;
    std::uint64_t right = y & half_mask_;
    for (int r = kRounds - 1; r >= 0; --r) {
      std::uint64_t prev = right ^ Round(left, keys_[r]);
      right = left;
      left = prev;
    }
    return (left << half_bits_) | right;
  }

  /// g_t(x): the t most significant bits of g(x) — the group id of x in the
  /// resolution-t partition (Section 3.2).  t in [0, domain_bits].
  std::uint64_t Prefix(std::uint64_t x, int t) const {
    return t == 0 ? 0 : Apply(x) >> (domain_bits_ - t);
  }

 private:
  // Validation must run before the member initializers shift by
  // domain_bits — an out-of-range value would be UB there.
  static int ValidatedDomainBits(int domain_bits) {
    if (domain_bits < 2 || domain_bits > 64 || domain_bits % 2 != 0) {
      throw std::invalid_argument(
          "FeistelPermutation: domain_bits must be even and in [2, 64]");
    }
    return domain_bits;
  }

  /// Round function: any fixed function of (half, key) works for a Feistel
  /// bijection; we use one SplitMix-style mix truncated to the half width.
  std::uint64_t Round(std::uint64_t half, std::uint64_t key) const {
    return Mix64(half ^ key) & half_mask_;
  }

  int domain_bits_;
  int half_bits_;
  std::uint64_t half_mask_;
  std::uint64_t keys_[kRounds];
};

}  // namespace fsi

#endif  // FSI_HASH_FEISTEL_H_
