// Differential property tests for mutable sets (Engine::PrepareMutable).
//
// The core invariant of the mutability layer: after ANY interleaving of
// Insert / Erase / Compact on a mutable set, every query over it returns
// results bitwise identical to a fresh Engine querying sets prepared from
// the equivalent final content.  Randomized mutation scripts are replayed
// against a std::set<Elem> model and the two worlds compared across every
// registered algorithm (including hidden ones) and every sink —
// Materialize, ExecuteInto, Count, Unordered, Visit, Limit.
//
// FSI_STRESS_ITERS multiplies the number of random scripts per algorithm
// (default 1; the nightly CI leg runs 10) with per-iteration fixed seeds,
// so every failure is reproducible from the test name + iteration alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "fsi.h"
#include "index/inverted_index.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace fsi {
namespace {

std::size_t StressIters() {
  const char* env = std::getenv("FSI_STRESS_ITERS");
  if (env == nullptr) return 1;
  long v = std::strtol(env, nullptr, 10);
  return v > 0 ? static_cast<std::size_t>(v) : 1;
}

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

ElemList ToList(const std::set<Elem>& model) {
  return ElemList(model.begin(), model.end());
}

// Runs one query through every sink of both engines and demands bitwise
// agreement with `expected` everywhere.  `mutated` queries the live
// mutable handles; `fresh_sets` are the same effective contents prepared
// immutably on a fresh engine.
void ExpectAllSinksAgree(const Engine& engine,
                         const std::vector<const PreparedSet*>& mutated,
                         const Engine& fresh_engine,
                         const std::vector<const PreparedSet*>& fresh_sets,
                         const ElemList& expected, const std::string& label) {
  EXPECT_EQ(engine.Query(mutated).Materialize(), expected) << label;
  EXPECT_EQ(fresh_engine.Query(fresh_sets).Materialize(), expected) << label;

  ElemList into;
  QueryStats stats = engine.Query(mutated).ExecuteInto(&into);
  EXPECT_EQ(into, expected) << label;
  EXPECT_EQ(stats.result_size, expected.size()) << label;

  EXPECT_EQ(engine.Query(mutated).Count(), expected.size()) << label;

  ElemList unordered = engine.Query(mutated).Unordered().Materialize();
  std::sort(unordered.begin(), unordered.end());
  EXPECT_EQ(unordered, expected) << label;

  ElemList visited;
  engine.Query(mutated).Visit([&](Elem e) { visited.push_back(e); });
  EXPECT_EQ(visited, expected) << label;

  std::size_t cap = std::min<std::size_t>(3, expected.size());
  ElemList limited = engine.Query(mutated).Limit(cap).Materialize();
  ElemList head(expected.begin(), expected.begin() + cap);
  EXPECT_EQ(limited, head) << label;
}

Engine MakeEngine(const std::string& name) {
  // The planner's calibration probe is environment-dependent; pin the
  // built-in constants so plans (and thus execution paths) are
  // deterministic across machines.
  if (name == "Planner" || name == "auto") {
    return Engine("Planner:calibration=off");
  }
  return Engine(name, {.validation = ValidationPolicy::kFull});
}

// ---------------------------------------------------------------------------
// Randomized differential scripts, every algorithm x every sink.
// ---------------------------------------------------------------------------

class MutationAlgorithmTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MutationAlgorithmTest, RandomScriptsMatchFreshEngine) {
  const std::string& name = GetParam();
  Engine engine = MakeEngine(name);
  const std::size_t iters = 2 * StressIters();
  for (std::size_t iter = 0; iter < iters; ++iter) {
    Xoshiro256 rng(0x5e7c0de5ULL + 977 * iter);
    const std::uint64_t universe = 1 << 18;

    // Two immutable companions plus one mutable protagonist (IntGroup has
    // arity 2, so it gets a single companion).
    std::vector<std::size_t> sizes = {400, 700, 2400};
    if (sizes.size() > engine.max_query_sets()) sizes.resize(2);
    auto lists = GenerateIntersectingSets(sizes, 60, universe, rng);

    // Manual compaction only: the script decides exactly when the delta
    // tier folds into the base, covering base-heavy, delta-heavy and
    // just-compacted shapes.  (Background compaction is exercised by
    // read_while_write_test.cc.)
    PreparedSet target = engine.PrepareMutable(
        lists[0], {.background_compaction = false});
    std::set<Elem> model(lists[0].begin(), lists[0].end());

    std::vector<PreparedSet> companions;
    for (std::size_t i = 1; i < lists.size(); ++i) {
      companions.push_back(engine.Prepare(lists[i]));
    }

    const std::size_t kOps = 300;
    std::uint64_t last_version = target.version();
    for (std::size_t op = 0; op < kOps; ++op) {
      switch (rng.Below(6)) {
        case 0: {  // insert a fresh element
          Elem x = static_cast<Elem>(rng.Below(universe));
          EXPECT_EQ(target.Insert(x), model.insert(x).second);
          break;
        }
        case 1: {  // insert an element already present (no-op path)
          if (model.empty()) break;
          Elem x = *std::next(model.begin(),
                              static_cast<long>(rng.Below(model.size())));
          EXPECT_FALSE(target.Insert(x));
          break;
        }
        case 2: {  // erase an element of the current effective set
          if (model.empty()) break;
          Elem x = *std::next(model.begin(),
                              static_cast<long>(rng.Below(model.size())));
          EXPECT_TRUE(target.Erase(x));
          model.erase(x);
          break;
        }
        case 3: {  // erase a random value (usually missing: no-op path)
          Elem x = static_cast<Elem>(rng.Below(universe));
          EXPECT_EQ(target.Erase(x), model.erase(x) > 0);
          break;
        }
        case 4: {  // tombstone revocation: erase a member, reinsert it
          if (model.empty()) break;
          Elem x = *std::next(model.begin(),
                              static_cast<long>(rng.Below(model.size())));
          EXPECT_TRUE(target.Erase(x));
          EXPECT_TRUE(target.Insert(x));
          break;
        }
        case 5: {  // occasional synchronous compaction
          if (rng.Below(10) == 0) {
            target.Compact();
            EXPECT_EQ(target.delta_size(), 0u);
          }
          break;
        }
      }
      // Mutations (and compactions) bump the version; no-ops never do.
      EXPECT_GE(target.version(), last_version);
      last_version = target.version();
      if (op % 37 == 0) {
        Elem probe = static_cast<Elem>(rng.Below(universe));
        EXPECT_EQ(target.Contains(probe), model.count(probe) > 0);
      }
    }

    EXPECT_EQ(target.size(), model.size());

    // The differential check: the mutated world vs a fresh engine
    // prepared from the model's final content.
    Engine fresh = MakeEngine(name);
    std::vector<ElemList> final_lists;
    final_lists.push_back(ToList(model));
    for (std::size_t i = 1; i < lists.size(); ++i) {
      final_lists.push_back(lists[i]);
    }
    ElemList expected = GroundTruth(final_lists);

    std::vector<PreparedSet> fresh_prepared;
    for (const ElemList& l : final_lists) fresh_prepared.push_back(fresh.Prepare(l));

    std::vector<const PreparedSet*> mutated{&target};
    std::vector<const PreparedSet*> fresh_sets{&fresh_prepared[0]};
    for (std::size_t i = 0; i < companions.size(); ++i) {
      mutated.push_back(&companions[i]);
      fresh_sets.push_back(&fresh_prepared[i + 1]);
    }
    std::string label = name + " iter=" + std::to_string(iter) +
                        " delta=" + std::to_string(target.delta_size());
    ExpectAllSinksAgree(engine, mutated, fresh, fresh_sets, expected, label);

    // And once more after folding the remaining delta into the base: the
    // compacted structure must be indistinguishable too.
    target.Compact();
    EXPECT_EQ(target.delta_size(), 0u);
    ExpectAllSinksAgree(engine, mutated, fresh, fresh_sets, expected,
                        label + " post-compact");
  }
}

TEST_P(MutationAlgorithmTest, AllMutableQueryMatchesFreshEngine) {
  const std::string& name = GetParam();
  Engine engine = MakeEngine(name);
  Engine fresh = MakeEngine(name);
  Xoshiro256 rng(0xa11e11ULL);
  std::vector<std::size_t> sizes = {300, 500, 800};
  if (sizes.size() > engine.max_query_sets()) sizes.resize(2);
  auto lists = GenerateIntersectingSets(sizes, 45, 1 << 17, rng);

  std::vector<PreparedSet> mutable_sets;
  std::vector<std::set<Elem>> models;
  for (const ElemList& l : lists) {
    mutable_sets.push_back(
        engine.PrepareMutable(l, {.background_compaction = false}));
    models.emplace_back(l.begin(), l.end());
  }
  // Mutate every set, so the fixup handles tombstones and insert buffers
  // from several sets of one query at once.
  for (std::size_t s = 0; s < mutable_sets.size(); ++s) {
    for (std::size_t op = 0; op < 120; ++op) {
      Elem x = static_cast<Elem>(rng.Below(1 << 17));
      if (rng.Below(2) == 0) {
        EXPECT_EQ(mutable_sets[s].Insert(x), models[s].insert(x).second);
      } else {
        EXPECT_EQ(mutable_sets[s].Erase(x), models[s].erase(x) > 0);
      }
    }
  }

  std::vector<ElemList> final_lists;
  for (const auto& m : models) final_lists.push_back(ToList(m));
  ElemList expected = GroundTruth(final_lists);

  std::vector<PreparedSet> fresh_prepared;
  for (const ElemList& l : final_lists) fresh_prepared.push_back(fresh.Prepare(l));
  std::vector<const PreparedSet*> mutated, fresh_sets;
  for (std::size_t i = 0; i < mutable_sets.size(); ++i) {
    mutated.push_back(&mutable_sets[i]);
    fresh_sets.push_back(&fresh_prepared[i]);
  }
  ExpectAllSinksAgree(engine, mutated, fresh, fresh_sets, expected, name);
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredAlgorithms, MutationAlgorithmTest,
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
// Deterministic edge cases (default planner engine).
// ---------------------------------------------------------------------------

TEST(MutationEdgeTest, MutationOnImmutableHandleThrows) {
  Engine engine("Merge");
  PreparedSet s = engine.Prepare({1, 2, 3});
  EXPECT_FALSE(s.is_mutable());
  EXPECT_THROW(s.Insert(4), std::logic_error);
  EXPECT_THROW(s.Erase(1), std::logic_error);
  EXPECT_THROW(s.Compact(), std::logic_error);
}

TEST(MutationEdgeTest, InsertEraseReturnValues) {
  Engine engine("Planner:calibration=off");
  PreparedSet s = engine.PrepareMutable({10, 20, 30});
  EXPECT_TRUE(s.is_mutable());
  EXPECT_FALSE(s.Insert(20));   // already in the base
  EXPECT_TRUE(s.Insert(25));
  EXPECT_FALSE(s.Insert(25));   // already in the insert buffer
  EXPECT_TRUE(s.Erase(10));
  EXPECT_FALSE(s.Erase(10));    // already tombstoned
  EXPECT_FALSE(s.Erase(999));   // never present
  EXPECT_TRUE(s.Erase(25));     // cancels the buffered insert
  EXPECT_EQ(s.size(), 2u);      // {20, 30}
  EXPECT_TRUE(s.Contains(20));
  EXPECT_TRUE(s.Contains(30));
  EXPECT_FALSE(s.Contains(10));
  EXPECT_FALSE(s.Contains(25));
}

TEST(MutationEdgeTest, TombstoneRevocationRestoresTheBaseElement) {
  Engine engine("Planner:calibration=off");
  PreparedSet s = engine.PrepareMutable({5, 6, 7});
  EXPECT_TRUE(s.Erase(6));
  EXPECT_FALSE(s.Contains(6));
  EXPECT_TRUE(s.Insert(6));  // revokes the tombstone
  EXPECT_TRUE(s.Contains(6));
  EXPECT_EQ(s.size(), 3u);
  PreparedSet other = engine.Prepare({6, 7, 8});
  EXPECT_EQ(engine.Query({&s, &other}).Materialize(), (ElemList{6, 7}));
}

TEST(MutationEdgeTest, DeltaOnlySetGrowsFromEmptyBase) {
  Engine engine("Planner:calibration=off");
  PreparedSet s =
      engine.PrepareMutable(std::span<const Elem>{},
                            {.background_compaction = false});
  EXPECT_EQ(s.size(), 0u);
  for (Elem x : {9, 1, 5, 3, 7}) EXPECT_TRUE(s.Insert(x));
  EXPECT_EQ(s.size(), 5u);
  PreparedSet other = engine.Prepare({1, 2, 3, 4, 5});
  EXPECT_EQ(engine.Query({&s, &other}).Materialize(), (ElemList{1, 3, 5}));
  s.Compact();
  EXPECT_EQ(engine.Query({&s, &other}).Materialize(), (ElemList{1, 3, 5}));
}

TEST(MutationEdgeTest, EraseToEmptyAndBack) {
  Engine engine("Planner:calibration=off");
  PreparedSet s = engine.PrepareMutable({1, 2, 3});
  for (Elem x : {1, 2, 3}) EXPECT_TRUE(s.Erase(x));
  EXPECT_EQ(s.size(), 0u);
  PreparedSet other = engine.Prepare({1, 2, 3});
  EXPECT_EQ(engine.Query({&s, &other}).Count(), 0u);
  EXPECT_TRUE(s.Insert(2));
  EXPECT_EQ(engine.Query({&s, &other}).Materialize(), (ElemList{2}));
}

TEST(MutationEdgeTest, SingleSetQueryReturnsTheEffectiveSet) {
  Engine engine("Planner:calibration=off");
  PreparedSet s = engine.PrepareMutable({2, 4, 6, 8});
  s.Insert(5);
  s.Erase(4);
  EXPECT_EQ(engine.Query({&s}).Materialize(), (ElemList{2, 5, 6, 8}));
}

TEST(MutationEdgeTest, ExplainAppendsDeltaMergeStepOnlyWhenDeltaNonEmpty) {
  Engine engine("Planner:calibration=off");
  PreparedSet a = engine.PrepareMutable({1, 2, 3, 4, 5, 6, 7, 8});
  PreparedSet b = engine.Prepare({2, 4, 6, 8, 10});
  QueryPlan clean = engine.Query({&a, &b}).Explain();
  for (const PlanStep& step : clean.steps) {
    EXPECT_NE(step.algorithm, "DeltaMerge");
  }
  a.Insert(9);
  a.Erase(2);
  QueryPlan dirty = engine.Query({&a, &b}).Explain();
  ASSERT_FALSE(dirty.steps.empty());
  EXPECT_EQ(dirty.steps.back().algorithm, "DeltaMerge");
  EXPECT_EQ(dirty.steps.back().right_size, a.delta_size());
  // The Expr form plans the same conjunction and annotates the fixup.
  const Expr both = Expr::And({Expr::Set(a), Expr::Set(b)});
  const std::string tree = engine.Query(both).Explain().tree;
  EXPECT_NE(tree.find("+DeltaMerge]"), std::string::npos) << tree;
  a.Compact();
  const std::string compacted = engine.Query(both).Explain().tree;
  EXPECT_EQ(compacted.find("DeltaMerge"), std::string::npos) << compacted;
}

// Explain() and an executed run of the same query plan against the same
// state, so they predict the same cost — also after the mutable input
// shrank since the query was built.
TEST(MutationEdgeTest, ExecutedPredictionMatchesExplain) {
  for (const char* spec : {"Merge", "Planner:calibration=off"}) {
    Engine engine(spec);
    ElemList big;
    for (Elem x = 0; x < 4000; ++x) big.push_back(2 * x);
    PreparedSet a =
        engine.PrepareMutable(big, {.background_compaction = false});
    PreparedSet b = engine.Prepare(big);
    fsi::Query q = engine.Query({&a, &b});
    for (Elem x = 0; x < 3000; ++x) a.Erase(2 * x);
    a.Compact();
    ElemList out;
    EXPECT_EQ(q.ExecuteInto(&out).predicted_micros,
              q.Explain().predicted_micros)
        << spec;
  }
}

TEST(MutationEdgeTest, PredictedMicrosIncludesTheFixupTerm) {
  Engine engine("Planner:calibration=off");
  ElemList big;
  for (Elem x = 0; x < 4000; ++x) big.push_back(2 * x);
  PreparedSet a = engine.PrepareMutable(big, {.background_compaction = false});
  PreparedSet b = engine.Prepare(big);
  ElemList out;
  double clean = engine.Query({&a, &b}).ExecuteInto(&out).predicted_micros;
  for (Elem x = 0; x < 400; ++x) a.Insert(2 * x + 1);
  double dirty = engine.Query({&a, &b}).ExecuteInto(&out).predicted_micros;
  EXPECT_GT(dirty, clean);
}

TEST(MutationEdgeTest, CopiedHandlesShareTheMutableSet) {
  Engine engine("Planner:calibration=off");
  PreparedSet s = engine.PrepareMutable({1, 2, 3});
  PreparedSet copy = s;
  EXPECT_TRUE(copy.Insert(4));
  EXPECT_TRUE(s.Contains(4));
  EXPECT_EQ(s.version(), copy.version());
}

TEST(MutationEdgeTest, QueryOutlivesTheHandleAndTheEngine) {
  ElemList expected;
  fsi::Query query = [] {
    Engine engine("Planner:calibration=off");
    PreparedSet a = engine.PrepareMutable({1, 3, 5, 7});
    PreparedSet b = engine.Prepare({3, 5, 9});
    a.Insert(9);
    return engine.Query({&a, &b});
  }();
  // Engine and handles are gone; the query holds shared ownership.
  EXPECT_EQ(query.Materialize(), (ElemList{3, 5, 9}));
}

// ---------------------------------------------------------------------------
// Background-compaction policy.
// ---------------------------------------------------------------------------

TEST(MutationCompactionTest, BackgroundCompactionDrainsTheDelta) {
  Engine engine("Planner:calibration=off");
  ElemList base;
  for (Elem x = 0; x < 2000; ++x) base.push_back(3 * x);
  // Tiny thresholds so the trigger fires during the loop.
  PreparedSet s = engine.PrepareMutable(
      base, {.compact_fill = 0.01, .compact_min = 16});
  std::set<Elem> model(base.begin(), base.end());
  Xoshiro256 rng(0xc0ffeeULL);
  for (std::size_t op = 0; op < 500; ++op) {
    Elem x = static_cast<Elem>(rng.Below(6000));
    if (rng.Below(2) == 0) {
      EXPECT_EQ(s.Insert(x), model.insert(x).second);
    } else {
      EXPECT_EQ(s.Erase(x), model.erase(x) > 0);
    }
  }
  s.WaitForCompaction();
  // The trigger fired at least once, so the remaining delta sits below
  // the threshold (new mutations may have landed after the last rebuild).
  EXPECT_LE(s.delta_size(), std::max<std::size_t>(16, model.size() / 100) +
                                 500);
  EXPECT_EQ(s.size(), model.size());
  Engine fresh("Planner:calibration=off");
  PreparedSet expected = fresh.Prepare(ToList(model));
  EXPECT_EQ(engine.Query({&s}).Materialize(),
            fresh.Query({&expected}).Materialize());
}

TEST(MutationCompactionTest, NonFinitePolicyIsRejected) {
  Engine engine("Planner:calibration=off");
  const ElemList base = {1, 2, 3};
  for (double fill : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                      std::numeric_limits<double>::infinity(),
                      -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)engine.PrepareMutable(base, {.compact_fill = fill}),
                 std::invalid_argument)
        << "compact_fill=" << fill;
  }
}

TEST(MutationCompactionTest, HugeFillNeverCompacts) {
  // compact_fill * |base| is far past SIZE_MAX: the trigger saturates
  // instead of taking an out-of-range cast to size_t (undefined; on x86
  // it read 0, so every write compacted).
  Engine engine("Planner:calibration=off");
  ElemList base;
  for (Elem x = 0; x < 2000; ++x) base.push_back(3 * x);
  PreparedSet s = engine.PrepareMutable(
      base, {.compact_fill = 1e300, .compact_min = 1});
  for (Elem x = 0; x < 100; ++x) ASSERT_TRUE(s.Insert(3 * x + 1));
  s.WaitForCompaction();
  EXPECT_EQ(s.delta_size(), 100u);
  EXPECT_EQ(s.size(), base.size() + 100);
}

TEST(MutationCompactionTest, ManualCompactIsIdempotent) {
  Engine engine("Planner:calibration=off");
  PreparedSet s = engine.PrepareMutable({1, 2, 3},
                                        {.background_compaction = false});
  s.Insert(4);
  std::uint64_t before = s.version();
  s.Compact();
  EXPECT_EQ(s.delta_size(), 0u);
  EXPECT_GT(s.version(), before);
  std::uint64_t after = s.version();
  s.Compact();  // nothing to fold: must not rebuild again
  EXPECT_EQ(s.version(), after);
}

// ---------------------------------------------------------------------------
// Footprint: a mutable set stores its base once.
// ---------------------------------------------------------------------------

TEST(MutationFootprintTest, PlannerBaseIsTheStructuresOwnArray) {
  Engine engine("Planner:calibration=off");
  Xoshiro256 rng(0xf00dULL);
  ElemList list = SampleSortedSet(5000, 1u << 20, rng);
  PreparedSet s = engine.PrepareMutable(list, {.background_compaction = false});
  EXPECT_EQ(s.SizeInWords(), engine.Prepare(list).SizeInWords());

  // Insert + Compact rebuilds the structure; the base moves with it.
  Elem extra = 1;
  while (std::binary_search(list.begin(), list.end(), extra)) ++extra;
  ASSERT_TRUE(s.Insert(extra));
  s.Compact();
  ASSERT_EQ(s.delta_size(), 0u);
  list.insert(std::lower_bound(list.begin(), list.end(), extra), extra);
  EXPECT_EQ(s.SizeInWords(), engine.Prepare(list).SizeInWords());
  const MutableSetState snap = s.MutableSnapshot();
  EXPECT_EQ(snap.owned_base, nullptr);
  EXPECT_EQ(ElemList(snap.base.begin(), snap.base.end()), list);
}

TEST(MutationFootprintTest, StructureWithoutElementsCountsItsOwnedBase) {
  Engine engine("RanGroupScan");
  Xoshiro256 rng(0xbeefULL);
  const ElemList list = SampleSortedSet(3001, 1u << 20, rng);
  PreparedSet s = engine.PrepareMutable(list, {.background_compaction = false});
  EXPECT_NE(s.MutableSnapshot().owned_base, nullptr);
  EXPECT_EQ(s.SizeInWords(), engine.Prepare(list).SizeInWords() +
                                 (list.size() * sizeof(Elem) + 7) / 8);
}

// ---------------------------------------------------------------------------
// Updatable InvertedIndex: InsertDocument / EraseDocument differential.
// ---------------------------------------------------------------------------

std::vector<std::string> Terms(std::initializer_list<const char*> ts) {
  return std::vector<std::string>(ts.begin(), ts.end());
}

TEST(UpdatableIndexTest, InsertEraseMatchesARebuiltIndex) {
  const std::size_t iters = StressIters();
  for (std::size_t iter = 0; iter < iters; ++iter) {
    Xoshiro256 rng(0x1d1ce5ULL + iter);
    const std::vector<std::string> vocab = {"a", "b", "c", "d", "e",
                                            "f", "g", "h"};
    // docs[d] = the term set of document d; model of the final corpus.
    std::map<Elem, std::vector<std::string>> docs;

    InvertedIndex live(Engine("Planner:calibration=off"));
    for (Elem d = 1; d <= 40; ++d) {
      std::vector<std::string> terms;
      for (const auto& t : vocab) {
        if (rng.Below(3) == 0) terms.push_back(t);
      }
      live.AddDocument(d, terms);
      docs[d] = terms;
    }
    live.FinalizeUpdatable({.background_compaction = false});

    // A burst of live updates: new documents, deletions, re-inserts.
    for (std::size_t op = 0; op < 60; ++op) {
      if (rng.Below(3) != 0 || docs.empty()) {
        Elem d = static_cast<Elem>(1000 + op);
        std::vector<std::string> terms;
        for (const auto& t : vocab) {
          if (rng.Below(3) == 0) terms.push_back(t);
        }
        if (terms.empty()) terms.push_back(vocab[rng.Below(vocab.size())]);
        EXPECT_EQ(live.InsertDocument(d, terms), terms.size());
        docs[d] = terms;
      } else {
        auto it = std::next(docs.begin(),
                            static_cast<long>(rng.Below(docs.size())));
        EXPECT_EQ(live.EraseDocument(it->first, it->second),
                  it->second.size());
        docs.erase(it);
      }
    }

    // Rebuild a read-only index from the final corpus state.
    InvertedIndex rebuilt(Engine("Planner:calibration=off"));
    for (const auto& [d, terms] : docs) rebuilt.AddDocument(d, terms);
    rebuilt.Finalize();

    for (const auto& q : {Terms({"a"}), Terms({"a", "b"}),
                          Terms({"c", "e", "g"}), Terms({"h", "d"})}) {
      EXPECT_EQ(live.Query(q), rebuilt.Query(q));
      EXPECT_EQ(live.CountMatching(q), rebuilt.CountMatching(q));
    }
    for (const auto& t : vocab) {
      EXPECT_EQ(live.DocumentFrequency(t), rebuilt.DocumentFrequency(t));
    }
  }
}

TEST(UpdatableIndexTest, InsertDocumentCreatesUnseenTerms) {
  InvertedIndex index{Engine("Planner:calibration=off")};
  index.AddDocument(1, Terms({"old"}));
  index.FinalizeUpdatable();
  EXPECT_EQ(index.num_terms(), 1u);
  EXPECT_EQ(index.InsertDocument(2, Terms({"old", "new"})), 2u);
  EXPECT_EQ(index.num_terms(), 2u);
  EXPECT_EQ(index.Query(Terms({"new"})), (ElemList{2}));
  EXPECT_EQ(index.Query(Terms({"old", "new"})), (ElemList{2}));
  // Unknown terms in EraseDocument are a no-op, not an error.
  EXPECT_EQ(index.EraseDocument(2, Terms({"absent"})), 0u);
  // Erasing the last document of a term leaves an empty posting behind.
  EXPECT_EQ(index.EraseDocument(2, Terms({"new"})), 1u);
  EXPECT_EQ(index.Query(Terms({"new"})), ElemList{});
  EXPECT_EQ(index.DocumentFrequency("new"), 0u);
}

TEST(UpdatableIndexTest, ReadOnlyIndexRejectsUpdates) {
  InvertedIndex index{Engine("Planner:calibration=off")};
  index.AddDocument(1, Terms({"x"}));
  index.Finalize();
  EXPECT_FALSE(index.updatable());
  EXPECT_THROW(index.InsertDocument(2, Terms({"x"})), std::logic_error);
  EXPECT_THROW(index.EraseDocument(1, Terms({"x"})), std::logic_error);
}

}  // namespace
}  // namespace fsi
