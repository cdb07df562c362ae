#include "hash/feistel.h"

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <vector>

#include "simd/decode_kernels.h"
#include "util/rng.h"

namespace fsi {
namespace {

TEST(FeistelTest, RejectsInvalidDomain) {
  EXPECT_THROW(FeistelPermutation(3, 1), std::invalid_argument);
  EXPECT_THROW(FeistelPermutation(0, 1), std::invalid_argument);
  EXPECT_THROW(FeistelPermutation(66, 1), std::invalid_argument);
  EXPECT_NO_THROW(FeistelPermutation(2, 1));
  EXPECT_NO_THROW(FeistelPermutation(64, 1));
}

TEST(FeistelTest, IsABijectionOnSmallDomains) {
  for (int bits : {2, 4, 8, 12, 16}) {
    FeistelPermutation g(bits, 0xdeadbeef);
    std::uint64_t domain = std::uint64_t{1} << bits;
    std::vector<bool> hit(domain, false);
    for (std::uint64_t x = 0; x < domain; ++x) {
      std::uint64_t y = g.Apply(x);
      ASSERT_LT(y, domain) << "output outside domain, bits=" << bits;
      ASSERT_FALSE(hit[y]) << "collision at bits=" << bits;
      hit[y] = true;
    }
  }
}

TEST(FeistelTest, InvertRoundTripsSmallDomain) {
  FeistelPermutation g(16, 42);
  for (std::uint64_t x = 0; x < (1u << 16); ++x) {
    EXPECT_EQ(g.Invert(g.Apply(x)), x);
  }
}

TEST(FeistelTest, InvertRoundTrips32And64Bits) {
  FeistelPermutation g32(32, 7);
  FeistelPermutation g64(64, 7);
  Xoshiro256 rng(3);
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t x32 = rng.Next() & 0xFFFFFFFFu;
    EXPECT_EQ(g32.Invert(g32.Apply(x32)), x32);
    std::uint64_t x64 = rng.Next();
    EXPECT_EQ(g64.Invert(g64.Apply(x64)), x64);
  }
}

TEST(FeistelTest, DifferentSeedsGiveDifferentPermutations) {
  FeistelPermutation a(32, 1);
  FeistelPermutation b(32, 2);
  int differing = 0;
  for (std::uint64_t x = 0; x < 256; ++x) {
    if (a.Apply(x) != b.Apply(x)) ++differing;
  }
  EXPECT_GT(differing, 250);  // near-certain disagreement
}

TEST(FeistelTest, PrefixMatchesTopBits) {
  FeistelPermutation g(32, 11);
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t x = rng.Next() & 0xFFFFFFFFu;
    std::uint64_t y = g.Apply(x);
    for (int t : {0, 1, 5, 13, 32}) {
      EXPECT_EQ(g.Prefix(x, t), t == 0 ? 0 : (y >> (32 - t)));
    }
  }
}

TEST(FeistelTest, PrefixPartitionIsBalanced) {
  // Group sizes under g_t should concentrate around n / 2^t
  // (Proposition A.2's premise).
  FeistelPermutation g(32, 99);
  const int t = 6;  // 64 groups
  std::vector<int> counts(1 << t, 0);
  const int n = 1 << 16;
  for (int x = 0; x < n; ++x) {
    ++counts[g.Prefix(static_cast<std::uint64_t>(x), t)];
  }
  double expected = static_cast<double>(n) / (1 << t);
  for (int c : counts) {
    EXPECT_GT(c, expected * 0.7);
    EXPECT_LT(c, expected * 1.3);
  }
}

// The decode table's permute entry on every tier the machine runs: g and
// g^-1 over whole arrays, in place, equal the per-element Apply/Invert for
// every even domain up to 32 bits and lengths around the AVX2 tier's
// 16-value blocks, and invert each other.
TEST(FeistelTest, BatchPermuteMatchesPerElementOnEveryTier) {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::DetectCpuLevel() >= simd::Level::kAvx2) {
    levels.push_back(simd::Level::kAvx2);
  }
  std::vector<std::size_t> lengths(68);
  std::iota(lengths.begin(), lengths.end(), std::size_t{0});
  lengths.push_back(100000);
  Xoshiro256 rng(0xBA7C4);
  for (simd::Level level : levels) {
    const simd::DecodeKernels& tier = simd::DecodeKernelsForLevel(level);
    for (int bits = 2; bits <= 32; bits += 2) {
      const FeistelPermutation g(bits, 0xF00D0000u + static_cast<unsigned>(bits));
      const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
      for (std::size_t n : lengths) {
        std::vector<std::uint32_t> x(n);
        for (std::uint32_t& v : x) {
          v = static_cast<std::uint32_t>(rng.Next() & mask);
        }
        // Both ends of the domain, where the halves are all 0 or all 1.
        if (n >= 2) {
          x[0] = 0;
          x[n - 1] = static_cast<std::uint32_t>(mask);
        }
        std::vector<std::uint32_t> applied = x;
        tier.permute(g, /*inverse=*/false, applied.data(), n);
        std::vector<std::uint32_t> inverted = x;
        tier.permute(g, /*inverse=*/true, inverted.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(applied[i], g.Apply(x[i]))
              << "level=" << static_cast<int>(level) << " bits=" << bits
              << " n=" << n << " i=" << i;
          ASSERT_EQ(inverted[i], g.Invert(x[i]))
              << "level=" << static_cast<int>(level) << " bits=" << bits
              << " n=" << n << " i=" << i;
        }
        tier.permute(g, /*inverse=*/true, applied.data(), n);
        ASSERT_EQ(applied, x) << "level=" << static_cast<int>(level)
                              << " bits=" << bits << " n=" << n;
      }
    }
  }
}

TEST(FeistelTest, DomainSize) {
  EXPECT_EQ(FeistelPermutation(8, 1).domain_size(), 256u);
  EXPECT_EQ(FeistelPermutation(32, 1).domain_size(), 1ULL << 32);
}

}  // namespace
}  // namespace fsi
