// Adversarial-distribution stress tests: the randomized-workload sweep in
// algorithm_property_test covers uniform draws; real posting lists are not
// uniform.  These tests feed every core algorithm distributions chosen to
// break common implementation shortcuts: long consecutive runs (group
// boundaries inside runs), geometric clusters (wildly uneven group fill),
// bit-aligned values (power-of-two structure interacting with prefix
// partitioning), and near-duplicate sets differing in a handful of
// elements.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/registry.h"
#include "util/rng.h"

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

ElemList DenseRuns(Xoshiro256& rng, std::size_t target) {
  // Alternating dense runs and long gaps.
  ElemList out;
  Elem cursor = static_cast<Elem>(rng.Below(1000));
  while (out.size() < target) {
    std::size_t run = 1 + rng.Below(300);
    for (std::size_t i = 0; i < run && out.size() < target; ++i) {
      out.push_back(cursor++);
    }
    cursor += static_cast<Elem>(1 + rng.Below(100000));
  }
  return out;
}

ElemList GeometricClusters(Xoshiro256& rng, std::size_t target) {
  // Cluster sizes and spacings spanning several orders of magnitude.
  ElemList out;
  Elem cursor = 0;
  while (out.size() < target) {
    std::size_t cluster = std::size_t{1} << rng.Below(10);
    for (std::size_t i = 0; i < cluster && out.size() < target; ++i) {
      cursor += static_cast<Elem>(1 + rng.Below(4));
      out.push_back(cursor);
    }
    cursor += static_cast<Elem>(1u << (10 + rng.Below(12)));
  }
  return out;
}

ElemList BitAligned(Xoshiro256& rng, std::size_t target) {
  // Multiples of powers of two: adversarial for prefix-based grouping and
  // multiply-shift hashing alike.
  ElemList out;
  out.reserve(target);
  Elem step = Elem{1} << (3 + rng.Below(6));
  for (std::size_t i = 0; out.size() < target; ++i) {
    out.push_back(static_cast<Elem>(i) * step);
  }
  return out;
}

using Generator = ElemList (*)(Xoshiro256&, std::size_t);

class StressTest : public ::testing::TestWithParam<std::string> {};

TEST_P(StressTest, AdversarialDistributions) {
  Generator generators[] = {DenseRuns, GeometricClusters, BitAligned};
  // Through the Engine with full validation: the generators' output is
  // re-checked, and the sweep exercises the production entry point.
  Engine engine(GetParam(), {.validation = ValidationPolicy::kFull});
  Xoshiro256 rng(0x57E55);
  for (Generator gen_a : generators) {
    for (Generator gen_b : generators) {
      std::vector<ElemList> lists = {gen_a(rng, 3000), gen_b(rng, 5000)};
      ASSERT_EQ(engine.IntersectLists(lists), GroundTruth(lists));
    }
  }
}

TEST_P(StressTest, NearDuplicateSets) {
  auto alg = AlgorithmRegistry::Global().Create(GetParam());
  Xoshiro256 rng(0x57E56);
  ElemList base = GeometricClusters(rng, 4000);
  // Remove a scattering of elements to make an almost-identical partner.
  ElemList partner;
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (rng.Below(100) > 2) partner.push_back(base[i]);
  }
  std::vector<ElemList> lists = {base, partner};
  ASSERT_EQ(alg->IntersectLists(lists), GroundTruth(lists));
}

TEST_P(StressTest, ManySeedsSmallSets) {
  // Rapid-fire differential check over many small random shapes.
  auto alg = AlgorithmRegistry::Global().Create(GetParam());
  Xoshiro256 rng(0x57E57);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<ElemList> lists(2);
    for (auto& l : lists) {
      std::size_t n = rng.Below(60);
      Elem cursor = 0;
      for (std::size_t i = 0; i < n; ++i) {
        cursor += static_cast<Elem>(1 + rng.Below(50));
        l.push_back(cursor);
      }
    }
    ASSERT_EQ(alg->IntersectLists(lists), GroundTruth(lists)) << trial;
  }
}

TEST_P(StressTest, KWayMixedDistributions) {
  Engine engine{GetParam()};
  if (engine.max_query_sets() < 4) GTEST_SKIP();
  Xoshiro256 rng(0x57E58);
  std::vector<ElemList> lists = {
      DenseRuns(rng, 500), GeometricClusters(rng, 2000), BitAligned(rng, 4000),
      DenseRuns(rng, 8000)};
  std::vector<PreparedSet> prepared;
  for (const ElemList& l : lists) prepared.push_back(engine.Prepare(l));
  ASSERT_EQ(engine.Query(prepared).Materialize(), GroundTruth(lists));
  ASSERT_EQ(engine.Query(prepared).Count(), GroundTruth(lists).size());
}

std::vector<std::string> StressedAlgorithms() {
  return {"Merge",        "SkipList",      "Hash",         "BPP",
          "Lookup",       "SvS",           "Adaptive",     "BaezaYates",
          "SmallAdaptive", "IntGroup",     "RanGroup",     "RanGroupScan",
          "RanGroupScan2", "HashBin",      "Hybrid",       "Merge_Delta",
          "Lookup_Delta", "RanGroupScan_Lowbits", "RanGroupScan_Delta"};
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, StressTest,
                         ::testing::ValuesIn(StressedAlgorithms()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace fsi
