// Tests for the cost-model query planner (api/planner.h): cost hooks on
// the registry descriptors, the zero-config Engine default path, plan
// shape and Explain(), calibration determinism and JSON round-trips, and
// planner-vs-explicit-spec result equality across every registered
// algorithm and sink.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "fsi.h"
#include "index/inverted_index.h"
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

std::vector<PreparedSet> PrepareAll(const Engine& engine,
                                    const std::vector<ElemList>& lists) {
  std::vector<PreparedSet> prepared;
  prepared.reserve(lists.size());
  for (const ElemList& l : lists) prepared.push_back(engine.Prepare(l));
  return prepared;
}

// A deterministic planner engine for plan-shape tests: calibration=off pins
// the built-in constants regardless of the environment.
Engine DeterministicPlanner() { return Engine("Planner:calibration=off"); }

// ---------------------------------------------------------------------------
// Registry cost hooks.
// ---------------------------------------------------------------------------

TEST(CostHookTest, PortfolioDescriptorsPublishCosts) {
  auto& registry = AlgorithmRegistry::Global();
  // Portfolio members plus the compressed algorithms: the planner prices
  // the compressed representation with these hooks.
  for (const char* name :
       {"Merge", "SvS", "RanGroupScan", "HashBin", "Hybrid", "Merge_Gamma",
        "Merge_Delta", "Lookup_Gamma", "Lookup_Delta", "RanGroupScan_Lowbits",
        "RanGroupScan_Gamma", "RanGroupScan_Delta"}) {
    const AlgorithmDescriptor* d = registry.Find(name);
    ASSERT_NE(d, nullptr) << name;
    EXPECT_NE(d->cost, nullptr) << name;
  }
  for (const char* name : {"Adaptive", "SkipList", "Hash", "Lookup",
                           "Planner"}) {
    const AlgorithmDescriptor* d = registry.Find(name);
    ASSERT_NE(d, nullptr) << name;
    EXPECT_EQ(d->cost, nullptr) << name;
  }
}

TEST(CostHookTest, FormulasFollowThePaperBounds) {
  CostConstants c;  // built-in defaults
  StepCostQuery balanced{10000, 10000, 100.0};
  StepCostQuery skewed{100, 1000000, 10.0};
  auto& registry = AlgorithmRegistry::Global();
  auto cost = [&](const char* name, const StepCostQuery& q) {
    return registry.Find(name)->cost(q, c);
  };
  // Balanced: the linear-scan families beat the gallop family.
  EXPECT_LT(cost("Merge", balanced), cost("SvS", balanced));
  // Heavily skewed: galloping beats scanning a million elements.
  EXPECT_LT(cost("SvS", skewed), cost("Merge", skewed));
  // Hybrid is the min of its two paths.
  EXPECT_DOUBLE_EQ(cost("Hybrid", skewed),
                   std::min(cost("RanGroupScan", skewed),
                            cost("HashBin", skewed)));
}

// ---------------------------------------------------------------------------
// The zero-config default path.
// ---------------------------------------------------------------------------

TEST(PlannerEngineTest, DefaultEngineIsThePlanner) {
  Engine engine;
  EXPECT_EQ(engine.algorithm_name(), "Planner");
  PreparedSet a = engine.Prepare({1, 3, 5, 7});
  PreparedSet b = engine.Prepare({3, 4, 7, 9});
  EXPECT_EQ(engine.Query({&a, &b}).Materialize(), (ElemList{3, 7}));
}

TEST(PlannerEngineTest, AutoAliasResolvesHidden) {
  Engine engine("auto");
  EXPECT_EQ(engine.algorithm_name(), "Planner");
  auto visible = AlgorithmRegistry::Global().Names(/*include_hidden=*/false);
  EXPECT_EQ(std::find(visible.begin(), visible.end(), "auto"), visible.end());
  auto all = AlgorithmRegistry::Global().Names(/*include_hidden=*/true);
  EXPECT_NE(std::find(all.begin(), all.end(), "auto"), all.end());
}

TEST(PlannerEngineTest, PlannedSetExposesBothStructures) {
  Engine engine = DeterministicPlanner();
  PreparedSet a = engine.Prepare({10, 20, 30, 40, 50});
  EXPECT_EQ(a.size(), 5u);
  EXPECT_EQ(a.algorithm_name(), "Planner");
  const auto* planned = dynamic_cast<const PlannedSet*>(a.raw());
  ASSERT_NE(planned, nullptr);
  EXPECT_GT(planned->NumGroups(), 0u);  // the scan structure is present
  // The composite is strictly larger than the plain array alone.
  EXPECT_GT(a.SizeInWords(), (5 * sizeof(Elem) + 7) / 8);
}

// ---------------------------------------------------------------------------
// Edge cases: k = 1, empty sets, empty queries, equal sizes, density.
// ---------------------------------------------------------------------------

TEST(PlannerEdgeCaseTest, SingleSetQueryReturnsTheSet) {
  Engine engine = DeterministicPlanner();
  ElemList list = {2, 4, 6, 8};
  PreparedSet a = engine.Prepare(list);
  EXPECT_EQ(engine.Query({&a}).Materialize(), list);
  EXPECT_EQ(engine.Query({&a}).Count(), list.size());
  QueryPlan plan = engine.Query({&a}).Explain();
  EXPECT_TRUE(plan.planned);
  EXPECT_TRUE(plan.steps.empty());
  EXPECT_EQ(plan.est_result, 4.0);
}

TEST(PlannerEdgeCaseTest, EmptyInputSetShortCircuits) {
  Engine engine = DeterministicPlanner();
  PreparedSet empty = engine.Prepare(std::initializer_list<Elem>{});
  PreparedSet full = engine.Prepare({1, 2, 3});
  EXPECT_TRUE(engine.Query({&empty, &full}).Materialize().empty());
  EXPECT_TRUE(engine.Query({&full, &empty}).Materialize().empty());
  EXPECT_TRUE(engine.Query({&empty, &empty}).Materialize().empty());
  EXPECT_EQ(engine.Query({&full, &empty}).Count(), 0u);
  QueryPlan plan = engine.Query({&full, &empty}).Explain();
  EXPECT_TRUE(plan.steps.empty());  // trivially empty: no steps to run
  EXPECT_EQ(plan.est_result, 0.0);
}

TEST(PlannerEdgeCaseTest, EmptyQueryMaterializesEmpty) {
  Engine engine = DeterministicPlanner();
  EXPECT_TRUE(engine.Query({}).Materialize().empty());
}

TEST(PlannerEdgeCaseTest, AllEqualSizesKeepsStableOrder) {
  Engine engine = DeterministicPlanner();
  Xoshiro256 rng(7);
  auto lists = GenerateIntersectingSets({500, 500, 500}, 31, 1 << 18, rng);
  auto prepared = PrepareAll(engine, lists);
  EXPECT_EQ(engine.Query(prepared).Materialize(), GroundTruth(lists));
  QueryPlan plan = engine.Query(prepared).Explain();
  EXPECT_EQ(plan.order, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(plan.steps.size(), 2u);
}

TEST(PlannerEdgeCaseTest, AdversarialDensity) {
  Engine engine = DeterministicPlanner();
  // Identical sets: 100% density, the Figure-5 large-r regime.
  ElemList dense;
  for (Elem i = 0; i < 4096; ++i) dense.push_back(i * 3);
  PreparedSet a = engine.Prepare(dense);
  PreparedSet b = engine.Prepare(dense);
  EXPECT_EQ(engine.Query({&a, &b}).Materialize(), dense);
  // Disjoint sets over interleaved values: 0% density, every element
  // adjacent to the other set's.
  ElemList odd;
  for (Elem i = 0; i < 4096; ++i) odd.push_back(i * 3 + 1);
  PreparedSet c = engine.Prepare(odd);
  EXPECT_TRUE(engine.Query({&a, &c}).Materialize().empty());
  EXPECT_EQ(engine.Query({&a, &c}).Count(), 0u);
}

TEST(PlannerEdgeCaseTest, HighArityQueries) {
  Engine engine = DeterministicPlanner();
  Xoshiro256 rng(11);
  auto lists =
      GenerateIntersectingSets({100, 200, 400, 800, 1600, 3200}, 9, 1 << 20,
                               rng);
  auto prepared = PrepareAll(engine, lists);
  EXPECT_EQ(engine.Query(prepared).Materialize(), GroundTruth(lists));
  EXPECT_EQ(engine.Query(prepared).Explain().steps.size(), 5u);
}

// ---------------------------------------------------------------------------
// Plans and Explain().
// ---------------------------------------------------------------------------

TEST(ExplainTest, OrdersSetsSmallestFirst) {
  Engine engine = DeterministicPlanner();
  Xoshiro256 rng(3);
  auto lists = GenerateIntersectingSets({40000, 300, 5000}, 13, 1 << 22, rng);
  auto prepared = PrepareAll(engine, lists);
  fsi::Query query = engine.Query(prepared);
  QueryPlan plan = query.Explain();
  EXPECT_TRUE(plan.planned);
  EXPECT_EQ(plan.order, (std::vector<std::size_t>{1, 2, 0}));
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(plan.steps[0].left_size, 300u);
  EXPECT_EQ(plan.steps[0].right_size, 5000u);
  EXPECT_FALSE(plan.steps[0].left_estimated);
  EXPECT_TRUE(plan.steps[1].left_estimated);
  EXPECT_EQ(plan.steps[1].right_size, 40000u);
  EXPECT_GT(plan.predicted_micros, 0.0);
  // The prediction is mirrored into the structural stats before execution.
  EXPECT_DOUBLE_EQ(query.stats().predicted_micros, plan.predicted_micros);
  // Every step names a portfolio algorithm, and the rendering mentions it.
  std::string text = plan.ToString();
  for (const PlanStep& step : plan.steps) {
    EXPECT_NE(text.find(step.algorithm), std::string::npos);
  }
}

TEST(ExplainTest, ExplicitSpecEnginePseudoPlan) {
  Engine engine("Merge");
  Xoshiro256 rng(5);
  auto lists = GenerateIntersectingSets({1000, 2000}, 10, 1 << 20, rng);
  auto prepared = PrepareAll(engine, lists);
  fsi::Query query = engine.Query(prepared);
  QueryPlan plan = query.Explain();
  EXPECT_FALSE(plan.planned);
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].algorithm, "Merge");
  EXPECT_GT(plan.predicted_micros, 0.0);  // Merge publishes a cost hook
  EXPECT_DOUBLE_EQ(query.stats().predicted_micros, plan.predicted_micros);

  // An algorithm without a cost hook predicts nothing.
  Engine no_hook("Adaptive");
  auto prepared2 = PrepareAll(no_hook, lists);
  fsi::Query query2 = no_hook.Query(prepared2);
  EXPECT_EQ(query2.Explain().predicted_micros, 0.0);
  EXPECT_EQ(query2.stats().predicted_micros, 0.0);
}

TEST(ExplainTest, SkewSelectsAGallopFamilyBalancedSelectsAScanFamily) {
  // With the built-in constants the model must reproduce the paper's
  // regimes: heavy skew -> galloping (SvS);
  // balanced high-density -> a linear-scan algorithm (Merge/RanGroupScan).
  Engine engine = DeterministicPlanner();
  Xoshiro256 rng(9);
  auto skewed = GenerateIntersectingSets({50, 200000}, 5, 1 << 24, rng);
  auto prepared = PrepareAll(engine, skewed);
  QueryPlan skew_plan = engine.Query(prepared).Explain();
  ASSERT_EQ(skew_plan.steps.size(), 1u);
  EXPECT_EQ(skew_plan.steps[0].algorithm, "SvS");

  auto balanced = GenerateIntersectingSets({30000, 30000}, 3000, 1 << 17, rng);
  auto prepared2 = PrepareAll(engine, balanced);
  QueryPlan flat_plan = engine.Query(prepared2).Explain();
  ASSERT_EQ(flat_plan.steps.size(), 1u);
  EXPECT_TRUE(flat_plan.steps[0].algorithm == "Merge" ||
              flat_plan.steps[0].algorithm == "RanGroupScan")
      << flat_plan.steps[0].algorithm;
}

// One plan shape per case: constants rigged so the planner must pick the
// listed steps, then every sink must agree with the ground truth.
struct RiggedPlanCase {
  const char* name;
  CostConstants constants;
  std::vector<std::size_t> sizes;
  std::size_t common;
  std::uint32_t universe;
  std::vector<std::string> steps;
  bool uniform;
};

CostConstants Rigged(double merge_ns, double gallop_ns, double scan_ns,
                     double scan_result_ns) {
  CostConstants c;
  c.merge_ns = merge_ns;
  c.gallop_ns = gallop_ns;
  c.scan_ns = scan_ns;
  c.scan_result_ns = scan_result_ns;
  return c;
}

TEST(ExplainTest, MixedChainPlansExecuteCorrectly) {
  const RiggedPlanCase cases[] = {
      // The balanced first step prefers RanGroupScan while the heavily
      // skewed final step prefers galloping (the native scan plan would
      // pay scan_ns over the whole 500k-element set; a gallop-only chain
      // overpays on the balanced first step).
      {"RanGroupScan->SvS chain", Rigged(1.0, 1.0, 0.1, 0.001),
       {3000, 4000, 500000}, 111, 1u << 20, {"RanGroupScan", "SvS"}, false},
      // Scanning is cheap everywhere, merging and galloping dear: one
      // native k-way RanGroupScan call.
      {"native RanGroupScan", Rigged(10.0, 10.0, 0.01, 0.001),
       {20000, 25000, 30000}, 300, 1u << 20,
       {"RanGroupScan", "RanGroupScan"}, true},
      // Merging is cheap everywhere: a k = 4 chain of pairwise merges.
      {"all-Merge chain", Rigged(0.01, 100.0, 100.0, 100.0),
       {20000, 25000, 30000, 35000}, 200, 1u << 17,
       {"Merge", "Merge", "Merge"}, false},
  };
  for (const RiggedPlanCase& c : cases) {
    SCOPED_TRACE(c.name);
    PlannerAlgorithm::Options options;
    options.constants = c.constants;
    Engine engine(std::make_unique<PlannerAlgorithm>(options));
    Xoshiro256 rng(13);
    auto lists = GenerateIntersectingSets(c.sizes, c.common, c.universe, rng);
    auto prepared = PrepareAll(engine, lists);
    QueryPlan plan = engine.Query(prepared).Explain();
    std::vector<std::string> steps;
    for (const PlanStep& step : plan.steps) steps.push_back(step.algorithm);
    EXPECT_EQ(steps, c.steps);
    EXPECT_EQ(plan.uniform, c.uniform);
    const ElemList truth = GroundTruth(lists);
    EXPECT_EQ(engine.Query(prepared).Materialize(), truth);
    ElemList unordered = engine.Query(prepared).Unordered().Materialize();
    std::sort(unordered.begin(), unordered.end());
    EXPECT_EQ(unordered, truth);
    EXPECT_EQ(engine.Query(prepared).Count(), truth.size());
  }
}

// ---------------------------------------------------------------------------
// Calibration: determinism, JSON round-trip, the measured sweep.
// ---------------------------------------------------------------------------

TEST(CalibrationTest, CalibrationOffIsDeterministic) {
  Engine a = DeterministicPlanner();
  Engine b = DeterministicPlanner();
  const auto& alg_a = dynamic_cast<const PlannerAlgorithm&>(a.algorithm());
  const auto& alg_b = dynamic_cast<const PlannerAlgorithm&>(b.algorithm());
  EXPECT_EQ(alg_a.calibration_source(), "default");
  const CostConstants defaults;
  EXPECT_EQ(alg_a.constants().merge_ns, defaults.merge_ns);
  EXPECT_EQ(alg_a.constants().scan_ns, defaults.scan_ns);
  EXPECT_EQ(alg_a.constants().gallop_ns, alg_b.constants().gallop_ns);
  // Identical constants => identical plans, run to run and engine to
  // engine.
  Xoshiro256 rng(21);
  auto lists = GenerateIntersectingSets({700, 900, 40000}, 17, 1 << 20, rng);
  auto pa = PrepareAll(a, lists);
  auto pb = PrepareAll(b, lists);
  EXPECT_EQ(a.Query(pa).Explain().ToString(), b.Query(pb).Explain().ToString());
}

TEST(CalibrationTest, JsonRoundTrip) {
  PlannerCalibration cal;
  cal.constants.merge_ns = 0.375;
  cal.constants.gallop_ns = 2.25;
  cal.constants.scan_ns = 1.5;
  cal.constants.hashbin_ns = 8.125;
  cal.constants.result_ns = 5.5;
  cal.constants.scan_result_ns = 77.25;
  cal.source = "measured";
  PlannerCalibration parsed = PlannerCalibration::FromJson(cal.ToJson());
  EXPECT_EQ(parsed.source, "json");
  EXPECT_DOUBLE_EQ(parsed.constants.merge_ns, 0.375);
  EXPECT_DOUBLE_EQ(parsed.constants.gallop_ns, 2.25);
  EXPECT_DOUBLE_EQ(parsed.constants.scan_ns, 1.5);
  EXPECT_DOUBLE_EQ(parsed.constants.hashbin_ns, 8.125);
  EXPECT_DOUBLE_EQ(parsed.constants.result_ns, 5.5);
  EXPECT_DOUBLE_EQ(parsed.constants.scan_result_ns, 77.25);
}

TEST(CalibrationTest, MalformedJsonThrows) {
  EXPECT_THROW(PlannerCalibration::FromJson("{}"), std::invalid_argument);
  EXPECT_THROW(PlannerCalibration::FromJson("not json at all"),
               std::invalid_argument);
  EXPECT_THROW(
      PlannerCalibration::FromJson(
          "{\"merge_ns\": 1, \"gallop_ns\": 1, \"scan_ns\": 1, "
          "\"hashbin_ns\": 1, \"result_ns\": 1, \"scan_result_ns\": bogus}"),
      std::invalid_argument);
  EXPECT_THROW(
      PlannerCalibration::FromJson(
          "{\"merge_ns\": -3, \"gallop_ns\": 1, \"scan_ns\": 1, "
          "\"hashbin_ns\": 1, \"result_ns\": 1, \"scan_result_ns\": 1}"),
      std::invalid_argument);
}

TEST(CalibrationTest, MeasuredSweepProducesSaneConstants) {
  PlannerCalibration measured = PlannerCalibration::Measure();
  EXPECT_EQ(measured.source, "measured");
  for (double v :
       {measured.constants.merge_ns, measured.constants.gallop_ns,
        measured.constants.scan_ns, measured.constants.scan_result_ns}) {
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 2001.0);
  }
}

// ---------------------------------------------------------------------------
// Planner-vs-explicit-spec equality, every registered algorithm x sink.
// ---------------------------------------------------------------------------

class PlannerAgreementTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PlannerAgreementTest, MatchesExplicitSpecAcrossSinks) {
  const std::string& name = GetParam();
  Engine explicit_engine(name, {.validation = ValidationPolicy::kFull});
  Engine planner = DeterministicPlanner();
  Xoshiro256 rng(0xfeedULL);
  std::vector<std::vector<std::size_t>> shapes = {{600, 800},
                                                  {90, 1200, 20000}};
  for (const auto& sizes : shapes) {
    if (sizes.size() > explicit_engine.max_query_sets()) continue;
    auto lists = GenerateIntersectingSets(sizes, 23, 1 << 20, rng);
    auto expected = GroundTruth(lists);

    auto pe = PrepareAll(explicit_engine, lists);
    auto pp = PrepareAll(planner, lists);

    // The explicit engine agrees with ground truth...
    EXPECT_EQ(explicit_engine.Query(pe).Materialize(), expected) << name;
    // ...and the planner agrees with it through every sink.
    EXPECT_EQ(planner.Query(pp).Materialize(), expected) << name;
    ElemList unordered = planner.Query(pp).Unordered().Materialize();
    std::sort(unordered.begin(), unordered.end());
    EXPECT_EQ(unordered, expected) << name;
    EXPECT_EQ(planner.Query(pp).Count(), expected.size()) << name;
    ElemList into;
    planner.Query(pp).ExecuteInto(&into);
    EXPECT_EQ(into, expected) << name;
    ElemList visited;
    planner.Query(pp).Visit([&](Elem e) { visited.push_back(e); });
    EXPECT_EQ(visited, expected) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredAlgorithms, PlannerAgreementTest,
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
// Planner-aware BatchRunner and InvertedIndex.
// ---------------------------------------------------------------------------

TEST(PlannerBatchTest, BatchRunnerMatchesSerialAndSumsPredictions) {
  Engine engine = DeterministicPlanner();
  Xoshiro256 rng(31);
  std::vector<std::vector<ElemList>> workloads;
  workloads.push_back(GenerateIntersectingSets({500, 700}, 19, 1 << 18, rng));
  workloads.push_back(
      GenerateIntersectingSets({60, 900, 30000}, 7, 1 << 22, rng));
  workloads.push_back(GenerateIntersectingSets({2000, 2000}, 400, 1 << 16,
                                               rng));
  std::vector<std::vector<PreparedSet>> prepared;
  std::vector<BatchQuery> batch;
  for (const auto& lists : workloads) {
    prepared.push_back(PrepareAll(engine, lists));
    BatchQuery q;
    for (const PreparedSet& s : prepared.back()) q.push_back(&s);
    batch.push_back(std::move(q));
  }
  BatchRunner runner(engine, {.num_threads = 4});
  std::vector<ElemList> results = runner.Materialize(batch);
  ASSERT_EQ(results.size(), workloads.size());
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    EXPECT_EQ(results[i], GroundTruth(workloads[i])) << "query " << i;
  }
  // The merged stats carry the cost model's forecast of the whole batch.
  EXPECT_GT(runner.stats().predicted_micros, 0.0);
}

TEST(PlannerIndexTest, DefaultConstructedIndexUsesThePlanner) {
  InvertedIndex index;
  EXPECT_EQ(index.engine().algorithm_name(), "Planner");
  std::vector<std::vector<std::string>> docs = {
      {"fast", "set", "intersection"},
      {"fast", "planner"},
      {"set", "planner", "intersection"},
      {"fast", "set", "planner"},
  };
  for (std::size_t i = 0; i < docs.size(); ++i) {
    index.AddDocument(static_cast<Elem>(i + 1), docs[i]);
  }
  index.Finalize();
  std::vector<std::string> q = {"fast", "set"};
  QueryStats stats;
  EXPECT_EQ(index.Query(q, &stats), (ElemList{1, 4}));
  EXPECT_EQ(index.CountMatching(q), 2u);
  std::vector<std::vector<std::string>> log = {q, {"planner"}, {"unknown"}};
  auto batched = index.BatchMatch(log);
  ASSERT_EQ(batched.size(), 3u);
  EXPECT_EQ(batched[0], (ElemList{1, 4}));
  EXPECT_EQ(batched[1], (ElemList{2, 3, 4}));
  EXPECT_TRUE(batched[2].empty());
}

// ---------------------------------------------------------------------------
// The space-budget dial: representation choice, Explain evidence,
// determinism.
// ---------------------------------------------------------------------------

// A deterministic planner engine with a space budget.
Engine BudgetPlanner(std::size_t budget, std::size_t min_compress = 0) {
  return Engine("Planner:calibration=off",
                EngineOptions{.space_budget_bytes = budget,
                              .min_compress_size = min_compress});
}

TEST(SpaceBudgetTest, ZeroBudgetKeepsEverythingUncompressed) {
  Engine engine = DeterministicPlanner();  // space_budget_bytes == 0
  Xoshiro256 rng(101);
  auto lists = GenerateIntersectingSets({2000, 4000, 8000}, 50, 1 << 20, rng);
  auto prepared = PrepareAll(engine, lists);
  for (const PreparedSet& s : prepared) EXPECT_FALSE(s.compressed());
  EXPECT_EQ(engine.SpaceUsedBytes(), 0u);  // no budget, no accounting
  EXPECT_EQ(engine.Query(prepared).Materialize(), GroundTruth(lists));
}

TEST(SpaceBudgetTest, BudgetRequiresThePlannerEngine) {
  EXPECT_THROW(Engine("Merge", EngineOptions{.space_budget_bytes = 1}),
               std::invalid_argument);
  EXPECT_THROW(Engine("RanGroupScan", EngineOptions{.space_budget_bytes = 1}),
               std::invalid_argument);
  // The planner accepts it.
  EXPECT_NO_THROW(
      Engine("Planner:calibration=off", EngineOptions{.space_budget_bytes = 1}));
}

TEST(SpaceBudgetTest, TinyBudgetCompressesAndStaysCorrect) {
  Engine engine = BudgetPlanner(1);  // everything over budget immediately
  Xoshiro256 rng(103);
  auto lists = GenerateIntersectingSets({1500, 3000, 6000}, 40, 1 << 20, rng);
  auto prepared = PrepareAll(engine, lists);
  for (const PreparedSet& s : prepared) EXPECT_TRUE(s.compressed());
  EXPECT_GT(engine.SpaceUsedBytes(), 0u);
  // Bitwise-identical results despite the representation change.
  EXPECT_EQ(engine.Query(prepared).Materialize(), GroundTruth(lists));
  EXPECT_EQ(engine.Query(prepared).Count(), GroundTruth(lists).size());
}

TEST(SpaceBudgetTest, HugeBudgetChangesNothing) {
  Engine engine = BudgetPlanner(std::size_t{1} << 40);
  Xoshiro256 rng(105);
  auto lists = GenerateIntersectingSets({2000, 4000}, 30, 1 << 20, rng);
  auto prepared = PrepareAll(engine, lists);
  for (const PreparedSet& s : prepared) EXPECT_FALSE(s.compressed());
  EXPECT_GT(engine.SpaceUsedBytes(), 0u);  // accounted, under budget
  EXPECT_LE(engine.SpaceUsedBytes(), std::size_t{1} << 40);
  EXPECT_EQ(engine.Query(prepared).Materialize(), GroundTruth(lists));
}

TEST(SpaceBudgetTest, MinCompressSizeKeepsSmallSetsFast) {
  // Tiny budget but a min_compress_size floor: small sets stay
  // uncompressed even though the budget is blown.
  Engine engine = BudgetPlanner(1, /*min_compress=*/1024);
  Xoshiro256 rng(107);
  auto lists = GenerateIntersectingSets({100, 5000}, 20, 1 << 20, rng);
  auto prepared = PrepareAll(engine, lists);
  EXPECT_FALSE(prepared[0].compressed());  // 100 < 1024
  EXPECT_TRUE(prepared[1].compressed());   // 5000 >= 1024, over budget
  EXPECT_EQ(engine.Query(prepared).Materialize(), GroundTruth(lists));
}

TEST(SpaceBudgetTest, BatchPicksThePredictedCheapestSplit) {
  Xoshiro256 rng(109);
  auto lists =
      GenerateIntersectingSets({1200, 2400, 4800, 9600}, 60, 1 << 21, rng);
  // Measure the uncompressed footprint first.
  Engine unlimited = DeterministicPlanner();
  std::size_t full_bytes = 0;
  for (const PreparedSet& s : PrepareAll(unlimited, lists)) {
    full_bytes += s.SizeInWords() * sizeof(std::uint64_t);
  }
  // A mid-range budget: roughly half the uncompressed footprint.
  Engine engine = BudgetPlanner(full_bytes / 2);
  std::vector<PreparedSet> prepared =
      engine.PrepareBatch(std::span<const ElemList>(lists));
  ASSERT_EQ(prepared.size(), lists.size());
  std::size_t compressed = 0;
  for (const PreparedSet& s : prepared) compressed += s.compressed() ? 1 : 0;
  // The greedy split compresses something but not everything.
  EXPECT_GT(compressed, 0u);
  EXPECT_LT(compressed, lists.size());
  EXPECT_LE(engine.SpaceUsedBytes(), full_bytes / 2);
  EXPECT_EQ(engine.Query(prepared).Materialize(), GroundTruth(lists));
}

TEST(SpaceBudgetTest, PredictedWordsMatchBuiltSizes) {
  // The dial picks a representation from sizes predicted from n alone;
  // each prediction must equal the built structure's SizeInWords(), for
  // the default planner and for non-default scan options.
  PlannerAlgorithm::Options wide;
  wide.calibration = false;
  wide.scan.m = 2;
  wide.scan.group_width = 16;
  wide.scan.universe_bits = 24;
  PlannerAlgorithm::Options narrow;
  narrow.calibration = false;
  narrow.scan.m = 1;
  narrow.scan.group_width = 4;
  narrow.scan.universe_bits = 20;
  PlannerAlgorithm::Options defaults;
  defaults.calibration = false;
  Xoshiro256 rng(131);
  for (const PlannerAlgorithm::Options& options : {defaults, wide, narrow}) {
    const PlannerAlgorithm planner(options);
    const std::uint64_t universe = std::uint64_t{1}
                                   << options.scan.universe_bits;
    for (std::size_t n :
         {0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 100, 1000, 1023, 1024, 1025,
          4096, 5000, 65535, 65536, 100000, 300000}) {
      const ElemList set = SampleSortedSet(n, universe, rng);
      EXPECT_EQ(planner.PreprocessWords(n),
                planner.Preprocess(set)->SizeInWords())
          << "uncompressed, n " << n << ", m " << options.scan.m;
      EXPECT_EQ(planner.PreprocessCompressedWords(n),
                planner.PreprocessCompressed(set)->SizeInWords())
          << "compressed, n " << n << ", universe bits "
          << options.scan.universe_bits;
    }
  }
}

TEST(SpaceBudgetTest, BatchChoosesWhatABuildBothOracleChooses) {
  // PrepareBatch builds each list once, in the representation chosen from
  // predicted sizes.  The oracle builds both representations of every
  // list, reads their real sizes and runs the same greedy choice: bytes
  // saved per extra microsecond of decode, best first, until the batch
  // fits.
  Xoshiro256 rng(137);
  std::vector<ElemList> lists;
  for (std::size_t n : {3, 40, 500, 900, 1200, 2400, 4800, 9600, 20000,
                        33000, 70000}) {
    lists.push_back(SampleSortedSet(n, std::uint64_t{1} << 24, rng));
  }
  PlannerAlgorithm::Options options;
  options.calibration = false;
  const PlannerAlgorithm planner(options);
  const CostConstants constants;  // what calibration=off plans with
  const double extra_ns =
      std::max(constants.decode_ns - constants.merge_ns, 1e-3);
  std::vector<std::uint64_t> bytes_u, bytes_c;
  std::uint64_t full = 0;
  for (const ElemList& l : lists) {
    bytes_u.push_back(planner.Preprocess(l)->SizeInWords() * 8);
    bytes_c.push_back(planner.PreprocessCompressed(l)->SizeInWords() * 8);
    full += bytes_u.back();
  }
  auto oracle = [&](std::uint64_t budget, std::size_t min_compress) {
    std::vector<bool> compress(lists.size(), false);
    std::vector<std::pair<double, std::size_t>> gains;
    for (std::size_t i = 0; i < lists.size(); ++i) {
      if (lists[i].size() < min_compress || bytes_c[i] >= bytes_u[i]) continue;
      const double micros =
          extra_ns * static_cast<double>(lists[i].size()) * 1e-3;
      gains.emplace_back(
          static_cast<double>(bytes_u[i] - bytes_c[i]) /
              std::max(micros, 1e-9),
          i);
    }
    std::stable_sort(gains.begin(), gains.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    std::uint64_t total = full;
    for (const auto& [gain, i] : gains) {
      if (total <= budget) break;
      total -= bytes_u[i] - bytes_c[i];
      compress[i] = true;
    }
    return compress;
  };
  for (std::size_t min_compress : {std::size_t{0}, std::size_t{1000}}) {
    for (std::uint64_t budget :
         {std::uint64_t{0}, std::uint64_t{1}, full / 2, full / 5,
          std::uint64_t{1} << 40}) {
      Engine engine = BudgetPlanner(budget, min_compress);
      const std::vector<PreparedSet> prepared =
          engine.PrepareBatch(std::span<const ElemList>(lists));
      const std::vector<bool> want =
          budget == 0 ? std::vector<bool>(lists.size(), false)
                      : oracle(budget, min_compress);
      std::uint64_t used = 0;
      for (std::size_t i = 0; i < lists.size(); ++i) {
        EXPECT_EQ(prepared[i].compressed(), want[i])
            << "list " << i << " (n " << lists[i].size() << "), budget "
            << budget << ", min_compress " << min_compress;
        used += want[i] ? bytes_c[i] : bytes_u[i];
      }
      if (budget != 0) {
        EXPECT_EQ(engine.SpaceUsedBytes(), used);
      }
    }
  }
}

TEST(SpaceBudgetTest, ExplainShowsTheRepresentation) {
  Engine engine = BudgetPlanner(1);
  Xoshiro256 rng(111);
  auto lists = GenerateIntersectingSets({1000, 2000, 4000}, 25, 1 << 20, rng);
  auto prepared = PrepareAll(engine, lists);
  QueryPlan plan = engine.Query(prepared).Explain();
  EXPECT_TRUE(plan.planned);
  EXPECT_EQ(plan.compressed_inputs, 3u);
  ASSERT_EQ(plan.steps.size(), 2u);
  // The chain starts by decoding the smallest input.  Its 1000 candidates
  // touch nearly every group of the 2000-element set, so decoding that set
  // and merging is priced below probing it; the few survivors then probe
  // the largest set group by group.
  EXPECT_EQ(plan.steps[0].algorithm, "LowbitsMerge");
  EXPECT_EQ(plan.steps[1].algorithm, "LowbitsProbe");
  EXPECT_TRUE(plan.start_decoded);
  EXPECT_FALSE(plan.uniform);
  const std::string text = plan.ToString();
  EXPECT_NE(text.find("representation: 3 of 3 inputs compressed"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("executed in g-space from a Lowbits decode"),
            std::string::npos)
      << text;
  // An uncompressed engine's rendering never mentions representation.
  Engine plain_engine = DeterministicPlanner();
  auto plain = PrepareAll(plain_engine, lists);
  EXPECT_EQ(plain_engine.Query(plain).Explain().ToString().find(
                "representation:"),
            std::string::npos);
}

TEST(SpaceBudgetTest, MixedRepresentationQueriesPlanAndExecute) {
  // One engine, one compressed set (prepared while over budget) and one
  // uncompressed set (small enough for the min_compress_size carve-out).
  Engine engine = BudgetPlanner(1, /*min_compress=*/1024);
  Xoshiro256 rng(113);
  auto lists = GenerateIntersectingSets({500, 6000}, 35, 1 << 20, rng);
  auto prepared = PrepareAll(engine, lists);
  ASSERT_FALSE(prepared[0].compressed());
  ASSERT_TRUE(prepared[1].compressed());
  QueryPlan plan = engine.Query(prepared).Explain();
  EXPECT_EQ(plan.compressed_inputs, 1u);
  // The plain smallest input starts the chain; the compressed one is
  // probed, not decoded.
  EXPECT_FALSE(plan.start_decoded);
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].algorithm, "LowbitsProbe");
  EXPECT_EQ(engine.Query(prepared).Materialize(), GroundTruth(lists));
}

TEST(SpaceBudgetTest, CalibrationOffWithBudgetIsDeterministic) {
  Xoshiro256 rng(115);
  auto lists = GenerateIntersectingSets({1000, 3000, 9000}, 45, 1 << 21, rng);
  auto explain = [&lists]() {
    Engine engine = BudgetPlanner(1);
    auto prepared = PrepareAll(engine, lists);
    return engine.Query(prepared).Explain().ToString();
  };
  const std::string first = explain();
  EXPECT_EQ(first, explain());  // same spec, same budget, same plan text
}

TEST(SpaceBudgetTest, SingleCompressedSetDecodesThroughQuery) {
  Engine engine = BudgetPlanner(1);
  Xoshiro256 rng(117);
  auto lists = GenerateIntersectingSets({4000}, 0, 1 << 20, rng);
  PreparedSet a = engine.Prepare(lists[0]);
  ASSERT_TRUE(a.compressed());
  EXPECT_EQ(a.size(), lists[0].size());
  EXPECT_EQ(engine.Query({&a}).Materialize(), lists[0]);
  EXPECT_EQ(engine.Query({&a}).Count(), lists[0].size());
}

}  // namespace
}  // namespace fsi
