// Tests for the g-order helper (core/g_order.h): the bucketed build every
// permuted-universe structure starts from must equal applying g and
// comparison-sorting, across set sizes around the bucket-count steps,
// permutation domains up to 32 bits, and a set crafted so that every
// g-value lands in one bucket (the std::sort fallback).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/g_order.h"
#include "hash/feistel.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace fsi {
namespace {

std::vector<std::uint32_t> ApplyAndSort(const ElemList& set,
                                        const FeistelPermutation& g) {
  std::vector<std::uint32_t> gvals;
  gvals.reserve(set.size());
  for (Elem x : set) gvals.push_back(static_cast<std::uint32_t>(g.Apply(x)));
  std::sort(gvals.begin(), gvals.end());
  return gvals;
}

TEST(GOrderTest, MatchesApplyAndSort) {
  Xoshiro256 rng(0x90fde5);
  for (int bits : {32, 30, 24, 16, 10, 4, 2}) {
    const FeistelPermutation g(bits, 0x5eed0000u + static_cast<unsigned>(bits));
    const std::uint64_t universe = std::uint64_t{1} << bits;
    for (std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{8},
          std::size_t{9}, std::size_t{1023}, std::size_t{1024},
          std::size_t{1025}, std::size_t{1} << 17}) {
      // Capped at the domain: n = 2^b fills every bucket exactly.
      const std::size_t size = static_cast<std::size_t>(
          std::min<std::uint64_t>(n, universe));
      const ElemList set = SampleSortedSet(size, universe, rng);
      EXPECT_EQ(GOrder(set, g, "test"), ApplyAndSort(set, g))
          << "domain bits " << bits << ", n " << size;
    }
  }
}

TEST(GOrderTest, OneCrowdedBucketFallsBackToSort) {
  // 1024 elements bucket by their top 7 g-value bits; choose them through
  // g^-1 so that every g-value shares those bits.  The one bucket then
  // holds all 1024 members, far past the insertion-sort limit.
  const FeistelPermutation g(32, 0xb0c4e7);
  const std::uint32_t top = std::uint32_t{93} << 25;
  ElemList set;
  for (std::uint32_t i = 0; i < 1024; ++i) {
    // Spread the low bits so the g-values arrive in no particular order.
    const std::uint32_t gv = top | ((i * 2654435761u) & ((1u << 25) - 1));
    set.push_back(static_cast<Elem>(g.Invert(gv)));
  }
  std::sort(set.begin(), set.end());
  ASSERT_EQ(std::unique(set.begin(), set.end()), set.end());
  const std::vector<std::uint32_t> gvals = GOrder(set, g, "test");
  EXPECT_EQ(gvals, ApplyAndSort(set, g));
  for (std::uint32_t gv : gvals) EXPECT_EQ(gv >> 25, 93u);
}

TEST(GOrderTest, RejectsElementsOutsideTheDomain) {
  const FeistelPermutation g(16, 1);
  const ElemList set = {1, 2, Elem{1} << 16};
  try {
    (void)GOrder(set, g, "Structure");
    FAIL() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "Structure: element outside the permutation domain");
  }
}

}  // namespace
}  // namespace fsi
