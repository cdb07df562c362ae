// Tests for the registry and the Hybrid facade (online algorithm choice,
// end of Section 3.4).

#include "core/intersector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "api/registry.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace fsi {
namespace {

ElemList GroundTruth(const std::vector<ElemList>& lists) {
  ElemList acc = lists[0];
  for (std::size_t i = 1; i < lists.size(); ++i) {
    ElemList next;
    std::set_intersection(acc.begin(), acc.end(), lists[i].begin(),
                          lists[i].end(), std::back_inserter(next));
    acc.swap(next);
  }
  return acc;
}

TEST(RegistryTest, CreatesEveryListedAlgorithm) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  for (bool compressed : {false, true}) {
    for (auto name : registry.Names(compressed, /*include_hidden=*/false)) {
      auto alg = registry.Create(name);
      ASSERT_NE(alg, nullptr);
      EXPECT_EQ(alg->name(), name);
    }
  }
}

TEST(RegistryTest, RanGroupScan2HasTwoImages) {
  auto alg = AlgorithmRegistry::Global().Create("RanGroupScan2");
  EXPECT_EQ(alg->name(), "RanGroupScan");
  auto* scan = dynamic_cast<RanGroupScanIntersection*>(alg.get());
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->m(), 2);
}

TEST(RegistryTest, UnknownNameThrows) {
  EXPECT_THROW(AlgorithmRegistry::Global().Create("NoSuchAlgorithm"),
               std::invalid_argument);
}

TEST(HybridTest, BalancedQueryUsesScanPathCorrectly) {
  Xoshiro256 rng(41);
  auto lists = GenerateIntersectingSets({4000, 5000}, 33, 1 << 22, rng);
  HybridIntersection alg;
  EXPECT_EQ(alg.IntersectLists(lists), GroundTruth(lists));
}

TEST(HybridTest, SkewedQueryUsesHashBinPathCorrectly) {
  Xoshiro256 rng(42);
  auto lists = GenerateIntersectingSets({100, 50000}, 13, 1 << 24, rng);
  HybridIntersection alg;  // ratio 500 >> threshold 32
  EXPECT_EQ(alg.IntersectLists(lists), GroundTruth(lists));
}

TEST(HybridTest, ThresholdBoundary) {
  // Just below and just above the default threshold; both must be correct.
  Xoshiro256 rng(43);
  auto below = GenerateIntersectingSets({1000, 31000}, 11, 1 << 22, rng);
  auto above = GenerateIntersectingSets({1000, 33000}, 11, 1 << 22, rng);
  HybridIntersection alg;
  EXPECT_EQ(alg.IntersectLists(below), GroundTruth(below));
  EXPECT_EQ(alg.IntersectLists(above), GroundTruth(above));
}

TEST(HybridTest, CustomThreshold) {
  HybridIntersection::Options o;
  o.skew_threshold = 2.0;
  HybridIntersection alg(o);
  Xoshiro256 rng(44);
  auto lists = GenerateIntersectingSets({1000, 3000}, 21, 1 << 20, rng);
  EXPECT_EQ(alg.IntersectLists(lists), GroundTruth(lists));
}

TEST(HybridTest, MultiSetSkewed) {
  Xoshiro256 rng(45);
  auto lists = GenerateIntersectingSets({50, 20000, 40000}, 6, 1 << 24, rng);
  HybridIntersection alg;
  EXPECT_EQ(alg.IntersectLists(lists), GroundTruth(lists));
}

TEST(RegistryTest, SeedPropagates) {
  // Different seeds must still give identical (correct) results.
  Xoshiro256 rng(46);
  auto lists = GenerateIntersectingSets({500, 700}, 9, 1 << 20, rng);
  for (auto name : {"RanGroupScan", "RanGroup", "HashBin", "IntGroup"}) {
    auto a1 = AlgorithmRegistry::Global().Create(name, 111);
    auto a2 = AlgorithmRegistry::Global().Create(name, 222);
    EXPECT_EQ(a1->IntersectLists(lists), a2->IntersectLists(lists)) << name;
  }
}

}  // namespace
}  // namespace fsi
