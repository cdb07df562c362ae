// Property tests: every intersection algorithm in the library must agree
// with std::set_intersection ground truth on randomized workloads sweeping
// sizes, skew ratios, number of sets and universe density, plus a battery
// of adversarial edge cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "api/engine.h"
#include "api/registry.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace fsi {
namespace {

ElemList GroundTruth(const std::vector<ElemList>& lists) {
  if (lists.empty()) return {};
  ElemList acc = lists[0];
  for (std::size_t i = 1; i < lists.size(); ++i) {
    ElemList next;
    std::set_intersection(acc.begin(), acc.end(), lists[i].begin(),
                          lists[i].end(), std::back_inserter(next));
    acc.swap(next);
  }
  return acc;
}

std::vector<std::string> AllNames() {
  std::vector<std::string> names;
  for (bool compressed : {false, true}) {
    for (auto n : AlgorithmRegistry::Global().Names(compressed, false)) {
      names.emplace_back(n);
    }
  }
  return names;
}

/// One workload shape: set sizes, controlled intersection size (or
/// kUniform), universe size.
struct WorkloadSpec {
  std::vector<std::size_t> sizes;
  long long r;  // -1: uncontrolled (independent uniform draws)
  std::uint64_t universe;
};

std::vector<WorkloadSpec> Specs() {
  return {
      // Balanced two-set, varying density.
      {{200, 200}, 20, 1 << 12},
      {{1000, 1000}, 10, 1 << 20},
      {{1000, 1000}, 700, 1 << 20},  // 70% intersection (Fig. 5 crossover)
      {{1000, 1000}, 1000, 1 << 20},  // full overlap
      {{4096, 4096}, 41, 1 << 16},    // dense universe
      // Skewed two-set (the HashBin / Hash regime).
      {{32, 4096}, 5, 1 << 20},
      {{10, 100000}, 3, 1 << 24},
      {{1000, 32000}, 10, 1 << 22},
      // k = 3, 4, 5.
      {{300, 400, 500}, 25, 1 << 18},
      {{100, 1000, 10000}, 7, 1 << 22},
      {{200, 200, 200, 200}, 13, 1 << 18},
      {{50, 500, 5000, 50000}, 4, 1 << 24},
      {{100, 100, 100, 100, 100}, 9, 1 << 16},
      // Uncontrolled uniform (Fig. 6 style, accidental overlaps).
      {{2000, 2000}, -1, 1 << 14},
      {{1000, 1000, 1000}, -1, 1 << 13},
      {{500, 600, 700, 800}, -1, 1 << 12},
  };
}

class AlgorithmPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {};

TEST_P(AlgorithmPropertyTest, MatchesGroundTruth) {
  const std::string& name = std::get<0>(GetParam());
  const WorkloadSpec spec = Specs()[std::get<1>(GetParam())];
  auto alg = AlgorithmRegistry::Global().Create(name);
  if (spec.sizes.size() > alg->max_query_sets()) {
    GTEST_SKIP() << name << " supports at most " << alg->max_query_sets()
                 << " sets";
  }
  // Three seeds per (algorithm, spec) cell.
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL + std::get<1>(GetParam()));
    std::vector<ElemList> lists;
    if (spec.r >= 0) {
      lists = GenerateIntersectingSets(
          spec.sizes, static_cast<std::size_t>(spec.r), spec.universe, rng);
    } else {
      for (std::size_t n : spec.sizes) {
        lists.push_back(SampleSortedSet(n, spec.universe, rng));
      }
    }
    ElemList expected = GroundTruth(lists);
    ElemList actual = alg->IntersectLists(lists);
    ASSERT_EQ(actual, expected)
        << name << " seed=" << seed << " spec=" << std::get<1>(GetParam());
    // The Engine API over the same workload: Unordered() must return the
    // same *set*, and the count-only sink the same cardinality.
    Engine engine(name, {.validation = ValidationPolicy::kFull});
    std::vector<PreparedSet> prepared;
    for (const ElemList& l : lists) prepared.push_back(engine.Prepare(l));
    ElemList unordered = engine.Query(prepared).Unordered().Materialize();
    std::sort(unordered.begin(), unordered.end());
    ASSERT_EQ(unordered, expected) << name << " (unordered)";
    ASSERT_EQ(engine.Query(prepared).Count(), expected.size())
        << name << " (count-only)";
    if (spec.r >= 0) {
      // The generator guarantees the exact intersection size.
      ASSERT_EQ(expected.size(), static_cast<std::size_t>(spec.r));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllWorkloads, AlgorithmPropertyTest,
    ::testing::Combine(::testing::ValuesIn(AllNames()),
                       ::testing::Range<std::size_t>(0, Specs().size())),
    [](const ::testing::TestParamInfo<AlgorithmPropertyTest::ParamType>& info) {
      return std::get<0>(info.param) + "_w" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Edge cases, one parameterized suite over algorithm names.
// ---------------------------------------------------------------------------

class AlgorithmEdgeCaseTest : public ::testing::TestWithParam<std::string> {
 protected:
  ElemList Run(const std::vector<ElemList>& lists) {
    auto alg = AlgorithmRegistry::Global().Create(GetParam());
    return alg->IntersectLists(lists);
  }
};

TEST_P(AlgorithmEdgeCaseTest, BothEmpty) {
  EXPECT_TRUE(Run({{}, {}}).empty());
}

TEST_P(AlgorithmEdgeCaseTest, OneEmpty) {
  EXPECT_TRUE(Run({{}, {1, 2, 3}}).empty());
  EXPECT_TRUE(Run({{1, 2, 3}, {}}).empty());
}

TEST_P(AlgorithmEdgeCaseTest, Singletons) {
  EXPECT_EQ(Run({{5}, {5}}), (ElemList{5}));
  EXPECT_TRUE(Run({{5}, {6}}).empty());
}

TEST_P(AlgorithmEdgeCaseTest, IdenticalSets) {
  ElemList a = {0, 1, 2, 3, 100, 1000, 65536, 1000000};
  EXPECT_EQ(Run({a, a}), a);
}

TEST_P(AlgorithmEdgeCaseTest, DisjointInterleaved) {
  ElemList a, b;
  for (Elem i = 0; i < 200; ++i) {
    a.push_back(2 * i);
    b.push_back(2 * i + 1);
  }
  EXPECT_TRUE(Run({a, b}).empty());
}

TEST_P(AlgorithmEdgeCaseTest, SubsetRelation) {
  ElemList small = {10, 20, 30};
  ElemList big;
  for (Elem i = 0; i < 100; ++i) big.push_back(i);
  EXPECT_EQ(Run({small, big}), small);
}

TEST_P(AlgorithmEdgeCaseTest, UniverseBoundaryValues) {
  ElemList a = {0, 1, 0x7FFFFFFFu, 0xFFFFFFFEu, 0xFFFFFFFFu};
  ElemList b = {0, 2, 0x7FFFFFFFu, 0xFFFFFFFFu};
  EXPECT_EQ(Run({a, b}), (ElemList{0, 0x7FFFFFFFu, 0xFFFFFFFFu}));
}

TEST_P(AlgorithmEdgeCaseTest, ConsecutiveRun) {
  ElemList a, b;
  for (Elem i = 5000; i < 6000; ++i) a.push_back(i);
  for (Elem i = 5500; i < 6500; ++i) b.push_back(i);
  ElemList expected;
  for (Elem i = 5500; i < 6000; ++i) expected.push_back(i);
  EXPECT_EQ(Run({a, b}), expected);
}

TEST_P(AlgorithmEdgeCaseTest, ThreeSetsWhenSupported) {
  auto alg = AlgorithmRegistry::Global().Create(GetParam());
  if (alg->max_query_sets() < 3) GTEST_SKIP();
  ElemList a = {1, 2, 3, 4, 5, 6, 7, 8};
  ElemList b = {2, 4, 6, 8, 10};
  ElemList c = {4, 8, 12};
  EXPECT_EQ(alg->IntersectLists(std::vector<ElemList>{a, b, c}),
            (ElemList{4, 8}));
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AlgorithmEdgeCaseTest,
                         ::testing::ValuesIn(AllNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace fsi
