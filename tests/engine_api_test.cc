// Tests for the public Engine/PreparedSet/Query API (api/engine.h) and the
// descriptor registry (api/registry.h): ownership and misuse checking,
// sink agreement across every registered algorithm, query statistics, the
// validation policy, option-string parsing and self-registration.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/ran_group_scan.h"
#include "fsi.h"
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

// ---------------------------------------------------------------------------
// PreparedSet ownership and misuse.
// ---------------------------------------------------------------------------

TEST(PreparedSetTest, CrossEngineMisuseThrows) {
  // Two engines over the *same* algorithm name still use independent hash
  // functions — mixing their structures was UB under the raw API and is a
  // checked error here.
  Engine e1("RanGroupScan");
  Engine e2("RanGroupScan");
  PreparedSet a = e1.Prepare(ElemList{1, 2, 3});
  PreparedSet b = e2.Prepare(ElemList{2, 3, 4});
  EXPECT_THROW(e1.Query({&a, &b}), std::invalid_argument);
  EXPECT_THROW(e2.Query({&a, &b}), std::invalid_argument);
  EXPECT_NO_THROW(e1.Query({&a}));
}

TEST(PreparedSetTest, CrossAlgorithmMisuseThrows) {
  Engine scan("RanGroupScan");
  Engine merge("Merge");
  PreparedSet a = scan.Prepare(ElemList{1, 2, 3});
  PreparedSet b = merge.Prepare(ElemList{2, 3, 4});
  EXPECT_THROW(scan.Query({&a, &b}), std::invalid_argument);
}

TEST(PreparedSetTest, EngineCopiesShareStructures) {
  Engine e1("Hybrid");
  Engine e2 = e1;  // copies share the algorithm instance
  PreparedSet a = e1.Prepare(ElemList{1, 2, 3, 7});
  PreparedSet b = e2.Prepare(ElemList{2, 7, 9});
  EXPECT_EQ(e2.Query({&a, &b}).Materialize(), (ElemList{2, 7}));
}

TEST(PreparedSetTest, EmptyHandleRejected) {
  Engine engine("Merge");
  PreparedSet empty;
  PreparedSet ok = engine.Prepare(ElemList{1, 2});
  EXPECT_TRUE(empty.empty_handle());
  EXPECT_THROW(engine.Query({&ok, &empty}), std::invalid_argument);
}

TEST(PreparedSetTest, QueryOutlivesEngineAndHandles) {
  // Query retains shared ownership of the algorithm and the structures.
  std::unique_ptr<Query> query;
  {
    Engine engine("RanGroupScan");
    PreparedSet a = engine.Prepare(ElemList{1, 5, 9, 13});
    PreparedSet b = engine.Prepare(ElemList{5, 6, 13, 20});
    query = std::make_unique<Query>(engine.Query({&a, &b}));
  }  // engine and handles destroyed
  EXPECT_EQ(query->Materialize(), (ElemList{5, 13}));
}

TEST(PreparedSetTest, HandleMetadata) {
  Engine engine("RanGroupScan");
  PreparedSet a = engine.Prepare(ElemList{1, 2, 3});
  EXPECT_EQ(a.size(), 3u);
  EXPECT_GT(a.SizeInWords(), 0u);
  EXPECT_EQ(a.algorithm_name(), "RanGroupScan");
  EXPECT_NE(a.raw(), nullptr);
}

TEST(EngineTest, ArityLimitChecked) {
  Engine engine("IntGroup");  // k == 2 only
  PreparedSet a = engine.Prepare(ElemList{1, 2});
  PreparedSet b = engine.Prepare(ElemList{2, 3});
  PreparedSet c = engine.Prepare(ElemList{2, 4});
  EXPECT_EQ(engine.max_query_sets(), 2u);
  EXPECT_THROW(engine.Query({&a, &b, &c}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Sinks agree with materialized results across every registered algorithm.
// ---------------------------------------------------------------------------

class EngineSinksTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineSinksTest, AllSinksAgree) {
  Xoshiro256 rng(91);
  auto lists = GenerateIntersectingSets({400, 900, 2500}, 37, 1 << 18, rng);
  Engine engine(GetParam(), {.validation = ValidationPolicy::kFull});
  if (lists.size() > engine.max_query_sets()) {
    lists.resize(engine.max_query_sets());
  }
  ElemList expected = GroundTruth(lists);

  std::vector<PreparedSet> prepared;
  for (const ElemList& l : lists) prepared.push_back(engine.Prepare(l));

  // Materialize (ordered): exact match.
  EXPECT_EQ(engine.Query(prepared).Materialize(), expected);

  // Unordered: same set.
  ElemList unordered = engine.Query(prepared).Unordered().Materialize();
  std::sort(unordered.begin(), unordered.end());
  EXPECT_EQ(unordered, expected);

  // Count-only sink.
  EXPECT_EQ(engine.Query(prepared).Count(), expected.size());

  // CountOnly().Execute() fluent spelling.
  EXPECT_EQ(engine.Query(prepared).CountOnly().Execute().result_size,
            expected.size());

  // Visitor sink collects the same elements.
  ElemList visited;
  std::size_t n = engine.Query(prepared).Visit(
      [&visited](Elem e) { visited.push_back(e); });
  EXPECT_EQ(n, expected.size());
  EXPECT_EQ(visited, expected);

  // Early-stopping visitor.
  std::size_t seen = 0;
  engine.Query(prepared).Visit([&seen](Elem) {
    ++seen;
    return seen < 5;
  });
  EXPECT_EQ(seen, std::min<std::size_t>(5, expected.size()));

  // Limit: an ordered limited query returns the first elements.
  ElemList limited = engine.Query(prepared).Limit(10).Materialize();
  std::size_t want = std::min<std::size_t>(10, expected.size());
  EXPECT_EQ(limited.size(), want);
  EXPECT_TRUE(std::equal(limited.begin(), limited.end(), expected.begin()));
  EXPECT_EQ(engine.Query(prepared).Limit(10).Count(), want);
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredAlgorithms, EngineSinksTest,
    ::testing::ValuesIn([] {
      std::vector<std::string> names;
      for (auto n : AlgorithmRegistry::Global().Names(/*include_hidden=*/true))
        names.emplace_back(n);
      return names;
    }()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// ---------------------------------------------------------------------------
// QueryStats.
// ---------------------------------------------------------------------------

TEST(QueryStatsTest, MonotoneAndNonZeroOnNonTrivialInput) {
  Xoshiro256 rng(5);
  auto small = GenerateIntersectingSets({2000, 3000}, 50, 1 << 20, rng);
  auto large = GenerateIntersectingSets({60000, 80000}, 500, 1 << 22, rng);
  Engine engine("RanGroupScan");

  auto run = [&engine](const std::vector<ElemList>& lists) {
    std::vector<PreparedSet> prepared;
    for (const ElemList& l : lists) prepared.push_back(engine.Prepare(l));
    Query query = engine.Query(prepared);
    query.Materialize();
    return query.stats();
  };
  QueryStats s_small = run(small);
  QueryStats s_large = run(large);

  EXPECT_EQ(s_small.num_sets, 2u);
  EXPECT_EQ(s_small.elements_scanned, 5000u);
  EXPECT_GT(s_small.groups_probed, 0u);  // grouped structure
  EXPECT_EQ(s_small.result_size, 50u);
  EXPECT_GT(s_small.wall_micros, 0.0);

  // Monotone in the workload size.
  EXPECT_GT(s_large.elements_scanned, s_small.elements_scanned);
  EXPECT_GT(s_large.groups_probed, s_small.groups_probed);
  EXPECT_GT(s_large.result_size, s_small.result_size);
}

TEST(QueryStatsTest, UngroupedAlgorithmReportsZeroGroups) {
  Engine engine("Merge");
  PreparedSet a = engine.Prepare(ElemList{1, 2, 3});
  PreparedSet b = engine.Prepare(ElemList{2, 3, 4});
  Query query = engine.Query({&a, &b});
  query.Materialize();
  EXPECT_EQ(query.stats().groups_probed, 0u);
  EXPECT_EQ(query.stats().elements_scanned, 6u);
}

TEST(QueryStatsTest, LimitCapsResultSize) {
  Engine engine("Merge");
  ElemList same;
  for (Elem i = 0; i < 1000; ++i) same.push_back(i);
  PreparedSet a = engine.Prepare(same);
  PreparedSet b = engine.Prepare(same);
  Query query = engine.Query({&a, &b});
  query.Limit(7);
  query.Materialize();
  EXPECT_EQ(query.stats().result_size, 7u);
}

// ---------------------------------------------------------------------------
// ValidationPolicy.
// ---------------------------------------------------------------------------

TEST(ValidationPolicyTest, FullPolicyRejectsInvalidInputInAnyBuild) {
  // The satellite guarantee: even in Release (where the default skips the
  // O(n) scan), an Engine with kFull still rejects bad input.
  for (const char* name : {"Merge", "RanGroupScan", "Hybrid", "Merge_Gamma"}) {
    Engine engine(name, {.validation = ValidationPolicy::kFull});
    EXPECT_TRUE(engine.validation_enabled()) << name;
    EXPECT_THROW(engine.Prepare(ElemList{3, 1, 2}), std::invalid_argument)
        << name;
    EXPECT_THROW(engine.Prepare(ElemList{1, 1, 2}), std::invalid_argument)
        << name;
    EXPECT_NO_THROW(engine.Prepare(ElemList{1, 2, 3})) << name;
  }
}

TEST(ValidationPolicyTest, DefaultPolicyFollowsBuildType) {
  Engine engine("Merge");  // kDefault
#ifdef NDEBUG
  EXPECT_FALSE(engine.validation_enabled());
#else
  EXPECT_TRUE(engine.validation_enabled());
  EXPECT_THROW(engine.Prepare(ElemList{3, 1, 2}), std::invalid_argument);
#endif
}

TEST(ValidationPolicyTest, OffPolicySkipsValidation) {
  Engine engine("Merge", {.validation = ValidationPolicy::kOff});
  EXPECT_FALSE(engine.validation_enabled());
  EXPECT_NO_THROW(engine.Prepare(ElemList{1, 2, 3}));
}

// ---------------------------------------------------------------------------
// Registry: option strings, errors, self-registration.
// ---------------------------------------------------------------------------

TEST(RegistryOptionsTest, OptionStringConfiguresAlgorithm) {
  auto alg = AlgorithmRegistry::Global().Create("RanGroupScan:m=2,w=4");
  auto* scan = dynamic_cast<RanGroupScanIntersection*>(alg.get());
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->m(), 2);
}

TEST(RegistryOptionsTest, OptionSpecsProduceCorrectResults) {
  Xoshiro256 rng(17);
  auto lists = GenerateIntersectingSets({1500, 2500}, 31, 1 << 20, rng);
  ElemList expected = GroundTruth(lists);
  for (const char* spec :
       {"RanGroupScan:m=2,w=4", "RanGroupScan:m=1,w=16,memoize=0",
        "Hybrid:skew_threshold=32", "IntGroup:s=16", "Lookup:bucket=64",
        "RanGroupScan_Gamma:m=2", "Merge:seed=42",
        "RanGroup:single_resolution=1"}) {
    SCOPED_TRACE(spec);
    Engine engine{spec};
    EXPECT_EQ(engine.IntersectLists(lists), expected);
  }
}

TEST(RegistryOptionsTest, SeedOptionMatchesSeedArgument) {
  Xoshiro256 rng(19);
  auto lists = GenerateIntersectingSets({500, 800}, 11, 1 << 18, rng);
  // Same seed => same permutation => identical *unordered* emission order.
  auto unordered_run = [&lists](std::unique_ptr<IntersectionAlgorithm> alg) {
    std::vector<std::unique_ptr<PreprocessedSet>> owned;
    std::vector<const PreprocessedSet*> views;
    for (const ElemList& l : lists) {
      owned.push_back(alg->Preprocess(l));
      views.push_back(owned.back().get());
    }
    ElemList out;
    alg->IntersectUnordered(views, &out);
    return out;
  };
  auto& registry = AlgorithmRegistry::Global();
  EXPECT_EQ(unordered_run(registry.Create("RanGroupScan", 777)),
            unordered_run(registry.Create("RanGroupScan:seed=777")));
}

TEST(RegistryOptionsTest, UnknownNameAndOptionsAreCheckedErrors) {
  auto& registry = AlgorithmRegistry::Global();
  EXPECT_THROW(registry.Create("NoSuchAlgorithm"), std::invalid_argument);
  EXPECT_THROW(registry.Create("RanGroupScan:nope=1"), std::invalid_argument);
  EXPECT_THROW(registry.Create("Merge:m=2"), std::invalid_argument);
  EXPECT_THROW(registry.Create("RanGroupScan:m=banana"),
               std::invalid_argument);
  EXPECT_THROW(registry.Create("RanGroupScan:m="), std::invalid_argument);
  EXPECT_THROW(registry.Create(""), std::invalid_argument);
  EXPECT_THROW(registry.Create(":m=2"), std::invalid_argument);
  // The compressed scans filter on their images: m = 0 is the planner's
  // internal representation, not a registry structure.
  for (const char* spec : {"RanGroupScan_Lowbits:m=0",
                           "RanGroupScan_Gamma:m=0", "RanGroupScan_Delta:m=-1"}) {
    EXPECT_THROW(registry.Create(spec), std::invalid_argument) << spec;
  }
  EXPECT_NE(registry.Create("RanGroupScan_Lowbits:m=1"), nullptr);
}

TEST(RegistryOptionsTest, BareKeyIsBooleanShorthand) {
  auto alg = AlgorithmRegistry::Global().Create("RanGroupScan:memoize");
  EXPECT_NE(alg, nullptr);
}

TEST(RegistryTest, NamesMatchLegacyLists) {
  auto& registry = AlgorithmRegistry::Global();
  // Hidden aliases appear only on request.
  auto all = registry.Names(/*include_hidden=*/true);
  EXPECT_NE(std::find(all.begin(), all.end(), "RanGroupScan2"), all.end());
  auto visible = registry.Names(/*include_hidden=*/false);
  EXPECT_EQ(std::find(visible.begin(), visible.end(), "RanGroupScan2"),
            visible.end());
}

TEST(RegistryTest, DescriptorMetadata) {
  const AlgorithmDescriptor* d = AlgorithmRegistry::Global().Find("IntGroup");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->max_query_sets, 2u);
  EXPECT_FALSE(d->compressed);
  const AlgorithmDescriptor* c =
      AlgorithmRegistry::Global().Find("RanGroupScan_Delta");
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->compressed);
  EXPECT_EQ(AlgorithmRegistry::Global().Find("NoSuchAlgorithm"), nullptr);
}

// Third-party self-registration: a descriptor registered from user code
// (here delegating to Merge) becomes creatable like any built-in.
TEST(RegistryTest, SelfRegistrationViaRegistrar) {
  static const AlgorithmRegistrar registrar({
      .name = "TestEchoMerge",
      .options_help = "",
      .make =
          [](AlgorithmOptions&) {
            return AlgorithmRegistry::Global().Create("Merge");
          },
  });
  auto alg = AlgorithmRegistry::Global().Create("TestEchoMerge");
  ASSERT_NE(alg, nullptr);
  EXPECT_EQ(alg->IntersectLists(
                std::vector<ElemList>{{1, 2, 3}, {2, 3, 4}}),
            (ElemList{2, 3}));
  // Duplicate registration is a checked error.
  EXPECT_THROW(AlgorithmRegistry::Global().Register(
                   {.name = "TestEchoMerge",
                    .make = [](AlgorithmOptions&) {
                      return AlgorithmRegistry::Global().Create("Merge");
                    }}),
               std::invalid_argument);
}

}  // namespace
}  // namespace fsi
