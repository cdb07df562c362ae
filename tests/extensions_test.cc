// Tests for the extension modules: bag semantics (paper §3 note),
// and t-threshold queries.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "api/registry.h"
#include "core/bag.h"
#include "core/ran_group_scan.h"
#include "core/threshold.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace fsi {
namespace {

// ---------------------------------------------------------------------------
// Bag semantics
// ---------------------------------------------------------------------------

TEST(BagTest, MinimumMultiplicities) {
  auto alg = AlgorithmRegistry::Global().Create("RanGroupScan");
  BagIntersection bags(alg.get());
  std::vector<BagEntry> a = {{1, 3}, {2, 1}, {5, 7}, {9, 2}};
  std::vector<BagEntry> b = {{1, 1}, {5, 9}, {8, 4}, {9, 5}};
  auto pa = bags.Preprocess(a);
  auto pb = bags.Preprocess(b);
  std::vector<const PreprocessedBag*> query = {pa.get(), pb.get()};
  auto result = bags.Intersect(query);
  std::vector<BagEntry> expected = {{1, 1}, {5, 7}, {9, 2}};
  EXPECT_EQ(result, expected);
}

TEST(BagTest, MultisetInput) {
  auto alg = AlgorithmRegistry::Global().Create("Merge");
  BagIntersection bags(alg.get());
  ElemList a = {1, 1, 1, 2, 5, 5};
  ElemList b = {1, 5, 5, 5, 6};
  auto pa = bags.PreprocessMultiset(a);
  auto pb = bags.PreprocessMultiset(b);
  std::vector<const PreprocessedBag*> query = {pa.get(), pb.get()};
  auto result = bags.Intersect(query);
  std::vector<BagEntry> expected = {{1, 1}, {5, 2}};
  EXPECT_EQ(result, expected);
}

TEST(BagTest, RandomAgainstBruteForce) {
  auto alg = AlgorithmRegistry::Global().Create("Hybrid");
  BagIntersection bags(alg.get());
  Xoshiro256 rng(91);
  for (int trial = 0; trial < 20; ++trial) {
    // Random bags over a small universe.
    std::map<Elem, std::uint32_t> ma, mb, mc;
    for (int i = 0; i < 300; ++i) {
      ma[static_cast<Elem>(rng.Below(200))]++;
      mb[static_cast<Elem>(rng.Below(200))]++;
      mc[static_cast<Elem>(rng.Below(200))]++;
    }
    auto to_bag = [](const std::map<Elem, std::uint32_t>& m) {
      std::vector<BagEntry> bag;
      for (auto [e, c] : m) bag.push_back({e, c});
      return bag;
    };
    auto ba = to_bag(ma);
    auto bb = to_bag(mb);
    auto bc = to_bag(mc);
    auto pa = bags.Preprocess(ba);
    auto pb = bags.Preprocess(bb);
    auto pc = bags.Preprocess(bc);
    std::vector<const PreprocessedBag*> query = {pa.get(), pb.get(), pc.get()};
    auto result = bags.Intersect(query);
    std::vector<BagEntry> expected;
    for (auto [e, c] : ma) {
      auto itb = mb.find(e);
      auto itc = mc.find(e);
      if (itb != mb.end() && itc != mc.end()) {
        expected.push_back({e, std::min({c, itb->second, itc->second})});
      }
    }
    ASSERT_EQ(result, expected) << "trial " << trial;
  }
}

TEST(BagTest, InputValidation) {
  auto alg = AlgorithmRegistry::Global().Create("Merge");
  BagIntersection bags(alg.get());
  std::vector<BagEntry> zero_count = {{1, 0}};
  EXPECT_THROW(bags.Preprocess(zero_count), std::invalid_argument);
  std::vector<BagEntry> unsorted = {{5, 1}, {3, 1}};
  EXPECT_THROW(bags.Preprocess(unsorted), std::invalid_argument);
  ElemList descending = {5, 3};
  EXPECT_THROW(bags.PreprocessMultiset(descending), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// t-threshold queries
// ---------------------------------------------------------------------------

class ThresholdTest : public ::testing::Test {
 protected:
  ElemList BruteForce(const std::vector<ElemList>& lists, std::size_t t) {
    std::map<Elem, std::size_t> counts;
    for (const auto& l : lists) {
      for (Elem x : l) ++counts[x];
    }
    ElemList out;
    for (auto [x, c] : counts) {
      if (c >= t) out.push_back(x);
    }
    return out;
  }
};

TEST_F(ThresholdTest, AllThresholdsAgainstBruteForce) {
  RanGroupScanIntersection scan;
  ThresholdIntersection thresh(&scan);
  Xoshiro256 rng(92);
  auto lists = GenerateUniformSets(4, 800, 1 << 12, rng);
  std::vector<std::unique_ptr<PreprocessedSet>> owned;
  std::vector<const PreprocessedSet*> views;
  for (const auto& l : lists) {
    owned.push_back(scan.Preprocess(l));
    views.push_back(owned.back().get());
  }
  for (std::size_t t = 1; t <= 4; ++t) {
    EXPECT_EQ(thresh.AtLeast(views, t), BruteForce(lists, t)) << "t=" << t;
  }
}

TEST_F(ThresholdTest, ThresholdOneIsUnion) {
  RanGroupScanIntersection scan;
  ThresholdIntersection thresh(&scan);
  ElemList a = {1, 3, 5};
  ElemList b = {2, 3, 8};
  auto pa = scan.Preprocess(a);
  auto pb = scan.Preprocess(b);
  std::vector<const PreprocessedSet*> views = {pa.get(), pb.get()};
  EXPECT_EQ(thresh.AtLeast(views, 1), (ElemList{1, 2, 3, 5, 8}));
  EXPECT_EQ(thresh.AtLeast(views, 2), (ElemList{3}));
}

TEST_F(ThresholdTest, SkewedSizes) {
  RanGroupScanIntersection scan;
  ThresholdIntersection thresh(&scan);
  Xoshiro256 rng(93);
  std::vector<ElemList> lists = {SampleSortedSet(20, 1 << 14, rng),
                                 SampleSortedSet(2000, 1 << 14, rng),
                                 SampleSortedSet(6000, 1 << 14, rng)};
  std::vector<std::unique_ptr<PreprocessedSet>> owned;
  std::vector<const PreprocessedSet*> views;
  for (const auto& l : lists) {
    owned.push_back(scan.Preprocess(l));
    views.push_back(owned.back().get());
  }
  for (std::size_t t = 1; t <= 3; ++t) {
    EXPECT_EQ(thresh.AtLeast(views, t), BruteForce(lists, t)) << "t=" << t;
  }
}

TEST_F(ThresholdTest, RejectsBadThreshold) {
  RanGroupScanIntersection scan;
  ThresholdIntersection thresh(&scan);
  ElemList a = {1};
  auto pa = scan.Preprocess(a);
  std::vector<const PreprocessedSet*> views = {pa.get()};
  EXPECT_THROW(thresh.AtLeast(views, 0), std::invalid_argument);
  EXPECT_THROW(thresh.AtLeast(views, 2), std::invalid_argument);
}

}  // namespace
}  // namespace fsi
