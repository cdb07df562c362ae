// The oracle-differential compression suite: a space-budget engine whose
// every set is compressed must be bitwise-identical to the uncompressed
// planner engine everywhere results can be observed —
//
//   * every Query sink (Materialize / Count / Unordered / Limit / Visit),
//   * boolean expression trees (And / Or / Diff / AtLeast),
//   * the sharded serving tier at shard counts {1, 2, 4, 8},
//   * mutable-set churn composed with compressed sets in one query,
//   * the snapshot round trip (compressed sections restore compressed),
//   * the InvertedIndex built over a budgeted engine.
//
// The oracle is std::set_intersection over the raw lists where results
// are re-derivable, and the budget-0 engine elsewhere.  Corpora sweep
// densities from near-disjoint to fully dense.  The corruption matrix
// extends the snapshot one: malformed compressed sections must produce a
// typed storage::SnapshotError — never an out-of-bounds read (the ASan
// leg enforces the "never" part).  FSI_STRESS_ITERS scales the random
// sweeps (nightly CI runs 10x).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compressed_snapshot_writer.h"
#include "fsi.h"
#include "index/inverted_index.h"
#include "storage/mapped_file.h"
#include "storage/snapshot.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace fsi {
namespace {

using storage::SnapshotError;
using storage::SnapshotErrorCode;

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

/// The engine under test: every set over the 1-byte budget, no hot/small
/// carve-out — the all-compressed extreme.
Engine CompressedEngine() {
  return Engine("Planner:calibration=off",
                EngineOptions{.space_budget_bytes = 1,
                              .min_compress_size = 0});
}

/// The oracle engine: identical spec, unlimited space.
Engine UncompressedEngine() { return Engine("Planner:calibration=off"); }

std::vector<PreparedSet> PrepareAll(const Engine& engine,
                                    const std::vector<ElemList>& lists) {
  std::vector<PreparedSet> prepared;
  prepared.reserve(lists.size());
  for (const ElemList& l : lists) prepared.push_back(engine.Prepare(l));
  return prepared;
}

std::vector<const PreparedSet*> Pointers(
    const std::vector<PreparedSet>& prepared) {
  std::vector<const PreparedSet*> ptrs;
  for (const PreparedSet& s : prepared) ptrs.push_back(&s);
  return ptrs;
}

/// Density-swept corpora: the same shapes at intersection densities from
/// ~0% to 100% of the smallest list.
std::vector<std::vector<ElemList>> DensityCorpora(Xoshiro256& rng) {
  std::vector<std::vector<ElemList>> corpora;
  const std::vector<std::size_t> sizes = {300, 1200, 5000};
  for (std::size_t r : {std::size_t{0}, std::size_t{3}, std::size_t{30},
                        std::size_t{150}, std::size_t{300}}) {
    corpora.push_back(GenerateIntersectingSets(sizes, r, 1 << 20, rng));
  }
  // A dense small-universe pair (every element adjacent to the other
  // set's) and a single-element overlap.
  corpora.push_back(GenerateIntersectingSets({2000, 2000}, 1000, 1 << 12,
                                             rng));
  corpora.push_back(GenerateIntersectingSets({2, 4000}, 1, 1 << 20, rng));
  return corpora;
}

// ---------------------------------------------------------------------------
// Every sink, every density.
// ---------------------------------------------------------------------------

TEST(CompressedDifferentialTest, EverySinkBitwiseIdentical) {
  Xoshiro256 rng(0xD1FF);
  Engine plain = UncompressedEngine();
  Engine comp = CompressedEngine();
  std::size_t corpus_id = 0;
  for (const auto& lists : DensityCorpora(rng)) {
    SCOPED_TRACE("corpus " + std::to_string(corpus_id++));
    auto p = PrepareAll(plain, lists);
    auto c = PrepareAll(comp, lists);
    for (const PreparedSet& s : c) ASSERT_TRUE(s.compressed());
    const ElemList truth = GroundTruth(lists);

    // Materialize (ordered).
    EXPECT_EQ(plain.Query(p).Materialize(), truth);
    EXPECT_EQ(comp.Query(c).Materialize(), truth);
    // Count.
    EXPECT_EQ(comp.Query(c).Count(), truth.size());
    // Unordered: same multiset of elements.
    ElemList unordered = comp.Query(c).Unordered().Materialize();
    std::sort(unordered.begin(), unordered.end());
    EXPECT_EQ(unordered, truth);
    // Limit.
    const std::size_t limit = truth.size() / 2;
    ElemList limited = comp.Query(c).Limit(limit).Materialize();
    EXPECT_EQ(limited,
              ElemList(truth.begin(),
                       truth.begin() + static_cast<std::ptrdiff_t>(limit)));
    // Visit.
    ElemList visited;
    comp.Query(c).Visit([&visited](Elem e) { visited.push_back(e); });
    std::sort(visited.begin(), visited.end());
    EXPECT_EQ(visited, truth);
  }
}

TEST(CompressedDifferentialTest, PairwiseRandomSweep) {
  const std::size_t iters = 20 * StressIters();
  Xoshiro256 rng(0xABCD);
  Engine plain = UncompressedEngine();
  Engine comp = CompressedEngine();
  for (std::size_t iter = 0; iter < iters; ++iter) {
    const std::size_t n1 = 1 + rng.Next() % 3000;
    const std::size_t n2 = 1 + rng.Next() % 3000;
    const std::size_t r = rng.Next() % (std::min(n1, n2) + 1);
    const auto lists =
        GenerateIntersectingSets({n1, n2}, r, 1 << 21, rng);
    auto p = PrepareAll(plain, lists);
    auto c = PrepareAll(comp, lists);
    ASSERT_EQ(comp.Query(c).Materialize(), plain.Query(p).Materialize())
        << "iter " << iter << " n1=" << n1 << " n2=" << n2 << " r=" << r;
  }
}

// ---------------------------------------------------------------------------
// Mixed representations: compressed and plain sets in one query, the
// planner's g-space chain.
// ---------------------------------------------------------------------------

/// Prepares lists[i] compressed exactly when compress[i]: the plain sets
/// go first into an engine whose budget is exactly their footprint, so
/// every later set overflows it and takes the compressed form.
struct MixedSets {
  Engine engine;
  std::vector<PreparedSet> sets;
};

MixedSets PrepareMixed(const std::vector<ElemList>& lists,
                       const std::vector<bool>& compress) {
  Engine sizing = UncompressedEngine();
  std::size_t plain_bytes = 0;
  for (std::size_t i = 0; i < lists.size(); ++i) {
    if (!compress[i]) {
      plain_bytes += sizing.Prepare(lists[i]).SizeInWords() * 8;
    }
  }
  MixedSets mixed{
      Engine("Planner:calibration=off",
             EngineOptions{.space_budget_bytes =
                               std::max<std::size_t>(plain_bytes, 1),
                           .min_compress_size = 0}),
      std::vector<PreparedSet>(lists.size())};
  for (bool pass : {false, true}) {
    for (std::size_t i = 0; i < lists.size(); ++i) {
      if (compress[i] == pass) mixed.sets[i] = mixed.engine.Prepare(lists[i]);
    }
  }
  return mixed;
}

/// Every sink of `engine` over `sets` against the oracle `truth`.
void ExpectEverySink(const Engine& engine,
                     const std::vector<PreparedSet>& sets,
                     const ElemList& truth) {
  EXPECT_EQ(engine.Query(sets).Materialize(), truth);
  EXPECT_EQ(engine.Query(sets).Count(), truth.size());
  ElemList unordered = engine.Query(sets).Unordered().Materialize();
  std::sort(unordered.begin(), unordered.end());
  EXPECT_EQ(unordered, truth);
  const std::size_t limit = (truth.size() + 1) / 2;
  EXPECT_EQ(engine.Query(sets).Limit(limit).Materialize(),
            ElemList(truth.begin(),
                     truth.begin() + static_cast<std::ptrdiff_t>(limit)));
  ElemList visited;
  engine.Query(sets).Visit([&visited](Elem e) { visited.push_back(e); });
  std::sort(visited.begin(), visited.end());
  EXPECT_EQ(visited, truth);
}

TEST(CompressedDifferentialTest, MixedRepresentationRandomSweep) {
  const std::size_t iters = 40 * StressIters();
  Xoshiro256 rng(0x313D);
  Engine plain = UncompressedEngine();
  for (std::size_t iter = 0; iter < iters; ++iter) {
    const std::size_t k = 1 + rng.Below(5);
    std::vector<std::size_t> sizes(k);
    for (std::size_t& n : sizes) {
      // Tiny (t = 0) to a few thousand elements, empty now and then.
      const std::uint64_t shape = rng.Below(8);
      n = shape == 0 ? rng.Below(9) : 1 + rng.Below(shape < 4 ? 300 : 6000);
    }
    std::vector<ElemList> lists;
    if (rng.Below(2) == 0) {
      const std::size_t min_n = *std::min_element(sizes.begin(), sizes.end());
      lists = GenerateIntersectingSets(sizes, rng.Below(min_n + 1), 1 << 21,
                                       rng);
    } else {
      // Independent draws over a small universe: natural partial overlaps.
      for (std::size_t n : sizes) lists.push_back(SampleSortedSet(n, 1 << 13, rng));
    }
    std::vector<bool> compress(k);
    bool any = false;
    for (std::size_t i = 0; i < k; ++i) {
      compress[i] = rng.Below(2) == 0;
      any |= compress[i];
    }
    if (!any) compress[rng.Below(k)] = true;

    SCOPED_TRACE("iter " + std::to_string(iter) + " k=" + std::to_string(k));
    MixedSets mixed = PrepareMixed(lists, compress);
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_EQ(mixed.sets[i].compressed(), compress[i]) << "set " << i;
    }
    const ElemList truth = GroundTruth(lists);
    ASSERT_EQ(plain.Query(PrepareAll(plain, lists)).Materialize(), truth);
    ExpectEverySink(mixed.engine, mixed.sets, truth);
  }
}

TEST(CompressedDifferentialTest, MixedRepresentationEdgeCases) {
  Engine probe = UncompressedEngine();
  const auto& planner =
      dynamic_cast<const PlannerAlgorithm&>(probe.algorithm());
  const FeistelPermutation& g = planner.compressed_algorithm().permutation();
  Xoshiro256 rng(0xED6E);
  // The elements whose g-values are `gvals`, sorted.
  const auto from_gvals = [&g](const std::vector<std::uint64_t>& gvals) {
    ElemList elems;
    for (std::uint64_t y : gvals) elems.push_back(static_cast<Elem>(g.Invert(y)));
    std::sort(elems.begin(), elems.end());
    return elems;
  };

  // `big`: ~2900 elements, so t = 9 (512 groups, 23 low bits).  Its
  // g-values stay in the lower half of g-space (groups 256..511 are empty,
  // i.e. past its last non-empty group) and skip every group z with
  // z % 5 == 0 — among them the skip-block boundaries 0, 40, 80, ...
  constexpr int kLowBits = 23;
  std::vector<std::uint64_t> big_g;
  for (std::uint64_t z = 0; z < 256; ++z) {
    if (z % 5 == 0) continue;
    for (int i = 0; i < 14; ++i) {
      big_g.push_back((z << kLowBits) | rng.Below(std::uint64_t{1} << kLowBits));
    }
  }
  std::sort(big_g.begin(), big_g.end());
  big_g.erase(std::unique(big_g.begin(), big_g.end()), big_g.end());
  const ElemList big = from_gvals(big_g);

  // `probe_set`: members of `big` at block starts and ends (groups 8k and
  // 8k + 7), both ends of empty groups, and values past big's last group.
  // Few enough (~190) that the planner probes `big` rather than decoding
  // it whole.
  std::vector<std::uint64_t> probe_g;
  for (std::size_t i = 0; i < big_g.size(); ++i) {
    const std::uint64_t z = big_g[i] >> kLowBits;
    const bool first = i == 0 || (big_g[i - 1] >> kLowBits) != z;
    const bool last = i + 1 == big_g.size() || (big_g[i + 1] >> kLowBits) != z;
    if ((z % 8 == 0 && first) || (z % 8 == 7 && last)) {
      probe_g.push_back(big_g[i]);
    }
  }
  for (std::uint64_t z = 0; z < 512; z += 10) {
    probe_g.push_back(z << kLowBits);
    probe_g.push_back(((z + 1) << kLowBits) - 1);
  }
  for (std::uint64_t z : {256u, 300u, 504u, 511u}) {
    probe_g.push_back((std::uint64_t{z} << kLowBits) | 12345);
  }
  std::sort(probe_g.begin(), probe_g.end());
  probe_g.erase(std::unique(probe_g.begin(), probe_g.end()), probe_g.end());
  const ElemList probe_set = from_gvals(probe_g);

  ElemList tiny = {big[3], big[100], big[2000], 17, 999999};  // t = 0
  std::sort(tiny.begin(), tiny.end());
  const ElemList empty;
  const ElemList one_member = {big[1234]};
  const ElemList one_outsider = {from_gvals({(std::uint64_t{400} << kLowBits) | 7})[0]};

  struct Case {
    const char* name;
    std::vector<ElemList> lists;
    std::vector<bool> compress;
    const char* first_step;  // the planned step 1, when it matters
  };
  const std::vector<Case> cases = {
      {"plain candidates into empty groups and past the last group",
       {probe_set, big}, {false, true}, "LowbitsProbe"},
      {"compressed candidates, same shapes", {probe_set, big}, {true, true},
       "LowbitsProbe"},
      {"compressed smallest, plain larger", {probe_set, big}, {true, false},
       nullptr},
      {"big decoded whole and merged", {big, big}, {false, true},
       "LowbitsMerge"},
      {"t = 0 set, compressed, against plain", {tiny, big}, {true, false},
       nullptr},
      {"t = 0 set, plain, against compressed", {tiny, big}, {false, true},
       "LowbitsProbe"},
      {"t = 0 set alone", {tiny}, {true}, nullptr},
      {"empty compressed set", {empty, big}, {true, false}, nullptr},
      {"empty compressed set, all compressed", {big, empty}, {true, true},
       nullptr},
      {"one-element smallest, all compressed",
       {one_member, probe_set, big}, {true, true, true}, "LowbitsProbe"},
      {"one-element non-member, all compressed",
       {one_outsider, big, probe_set}, {true, true, true}, "LowbitsProbe"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    MixedSets mixed = PrepareMixed(c.lists, c.compress);
    for (std::size_t i = 0; i < c.lists.size(); ++i) {
      ASSERT_EQ(mixed.sets[i].compressed(), c.compress[i]) << "set " << i;
    }
    if (c.first_step != nullptr) {
      const QueryPlan plan = mixed.engine.Query(mixed.sets).Explain();
      ASSERT_FALSE(plan.steps.empty());
      EXPECT_EQ(plan.steps[0].algorithm, c.first_step);
    }
    for (std::size_t i = 0; i < c.lists.size(); ++i) {
      const auto* planned =
          dynamic_cast<const PlannedSet*>(mixed.sets[i].raw());
      if (c.lists[i].size() == big.size() && planned->cscan() != nullptr) {
        ASSERT_EQ(planned->cscan()->t(), 9);
      }
      if (c.lists[i].size() == tiny.size() && planned->cscan() != nullptr) {
        ASSERT_EQ(planned->cscan()->t(), 0);
      }
    }
    ExpectEverySink(mixed.engine, mixed.sets, GroundTruth(c.lists));
  }
}

// ---------------------------------------------------------------------------
// Expression trees.
// ---------------------------------------------------------------------------

TEST(CompressedDifferentialTest, ExpressionTreesMatch) {
  Xoshiro256 rng(0xE59);
  Engine plain = UncompressedEngine();
  Engine comp = CompressedEngine();
  const auto lists =
      GenerateIntersectingSets({400, 900, 2500, 6000}, 80, 1 << 20, rng);
  auto p = PrepareAll(plain, lists);
  auto c = PrepareAll(comp, lists);

  // The same tree built over each engine's sets.
  const auto build = [](const std::vector<PreparedSet>& s) {
    std::vector<Expr> all;
    for (const PreparedSet& x : s) all.push_back(Expr::Set(x));
    // ((s0 & s1) | (s2 \ s3)) and an at-least-2 over everything.
    Expr tree = Expr::Or({Expr::And({all[0], all[1]}),
                          Expr::Diff(all[2], all[3])});
    Expr atleast = Expr::AtLeast(2, {all[0], all[1], all[2], all[3]});
    return std::pair<Expr, Expr>(std::move(tree), std::move(atleast));
  };
  auto [ptree, patleast] = build(p);
  auto [ctree, catleast] = build(c);
  EXPECT_EQ(comp.Query(ctree).Materialize(), plain.Query(ptree).Materialize());
  EXPECT_EQ(comp.Query(catleast).Materialize(),
            plain.Query(patleast).Materialize());
  EXPECT_EQ(comp.Query(ctree).Count(), plain.Query(ptree).Count());
  // Run the tree twice: the second pass may hit the ExprCache — results
  // must not change.
  EXPECT_EQ(comp.Query(ctree).Materialize(), plain.Query(ptree).Materialize());
}

// ---------------------------------------------------------------------------
// The sharded serving tier.
// ---------------------------------------------------------------------------

TEST(CompressedDifferentialTest, ShardedServeMatchesAcrossShardCounts) {
  Xoshiro256 rng(0x5A4D);
  const auto lists =
      GenerateIntersectingSets({800, 2000, 7000}, 120, 1 << 20, rng);
  const ElemList truth = GroundTruth(lists);
  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedEngine engine({.num_shards = shards,
                          .universe_bound = 1 << 20,
                          .spec = "Planner:calibration=off",
                          .space_budget_bytes = 1,
                          .min_compress_size = 0});
    std::vector<ShardedSet> sets;
    for (const ElemList& l : lists) sets.push_back(engine.Prepare(l));
    // Every non-empty shard slice of every set must be compressed.
    for (const ShardedSet& s : sets) {
      for (std::size_t i = 0; i < s.num_shards(); ++i) {
        if (s.shard_size(i) > 0) {
          EXPECT_TRUE(s.shard(i).compressed());
        }
      }
    }
    ServeResult flat = engine.Serve({&sets[0], &sets[1], &sets[2]});
    ASSERT_TRUE(flat.ok());
    EXPECT_EQ(flat.elems, truth);
    // An expression query through the same tier.
    ShardedExpr expr = ShardedExpr::And(
        {ShardedExpr::Set(sets[0]),
         ShardedExpr::Or({ShardedExpr::Set(sets[1]),
                          ShardedExpr::Set(sets[2])})});
    ElemList expr_truth;
    {
      Engine plain = UncompressedEngine();
      auto p = PrepareAll(plain, lists);
      Expr tree = Expr::And(
          {Expr::Set(p[0]), Expr::Or({Expr::Set(p[1]), Expr::Set(p[2])})});
      expr_truth = plain.Query(tree).Materialize();
    }
    ServeResult served = engine.Serve(expr);
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(served.elems, expr_truth);
  }
}

// ---------------------------------------------------------------------------
// Mutable churn composed with compressed sets.
// ---------------------------------------------------------------------------

TEST(CompressedDifferentialTest, MutableChurnAgainstCompressedSets) {
  Xoshiro256 rng(0xC4A2);
  Engine comp = CompressedEngine();
  const auto lists = GenerateIntersectingSets({1000, 4000}, 200, 1 << 18, rng);
  PreparedSet fixed = comp.Prepare(lists[1]);
  ASSERT_TRUE(fixed.compressed());
  PreparedSet churn = comp.PrepareMutable(lists[0]);
  ASSERT_FALSE(churn.compressed());  // mutable sets stay uncompressed

  ElemList live = lists[0];  // the oracle's view of the mutable set
  const std::size_t rounds = 30 * StressIters();
  for (std::size_t round = 0; round < rounds; ++round) {
    const Elem e = static_cast<Elem>(rng.Next() % (1 << 18));
    if (rng.Next() % 2 == 0) {
      churn.Insert(e);
      auto it = std::lower_bound(live.begin(), live.end(), e);
      if (it == live.end() || *it != e) live.insert(it, e);
    } else {
      churn.Erase(e);
      auto it = std::lower_bound(live.begin(), live.end(), e);
      if (it != live.end() && *it == e) live.erase(it);
    }
    if (round % 5 == 4) {
      ElemList truth;
      std::set_intersection(live.begin(), live.end(), lists[1].begin(),
                            lists[1].end(), std::back_inserter(truth));
      ASSERT_EQ(comp.Query({&churn, &fixed}).Materialize(), truth)
          << "round " << round;
      ASSERT_EQ(comp.Query({&churn, &fixed}).Count(), truth.size());
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot round trip: compressed sets persist compressed.
// ---------------------------------------------------------------------------

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "fsi_cdiff_" + name;
}

TEST(CompressedSnapshotTest, RoundTripRestoresCompressedRepresentation) {
  const std::string path = TempPath("roundtrip");
  Xoshiro256 rng(0x57AB);
  const auto lists =
      GenerateIntersectingSets({1500, 3000, 9000}, 150, 1 << 20, rng);
  const ElemList truth = GroundTruth(lists);
  {
    Engine comp = CompressedEngine();
    auto prepared = PrepareAll(comp, lists);
    for (const PreparedSet& s : prepared) ASSERT_TRUE(s.compressed());
    comp.SaveSnapshot(path, std::span<const PreparedSet>(prepared));
  }
  LoadedSnapshot loaded = Engine::LoadSnapshot(path);
  EXPECT_EQ(loaded.info.sets_compressed, lists.size());
  EXPECT_EQ(loaded.info.sets_rebuilt, 0u);
  ASSERT_EQ(loaded.sets.size(), lists.size());
  for (const PreparedSet& s : loaded.sets) {
    EXPECT_TRUE(s.compressed());
  }
  EXPECT_EQ(loaded.engine.Query(Pointers(loaded.sets)).Materialize(), truth);
  std::remove(path.c_str());
}

TEST(CompressedSnapshotTest, IndexOverBudgetedEngineRoundTrips) {
  const std::string path = TempPath("index");
  std::vector<std::vector<std::string>> docs;
  // ~1500 docs over 4 terms: long enough postings to be worth compressing.
  for (std::size_t i = 0; i < 1500; ++i) {
    std::vector<std::string> terms = {"common"};
    if (i % 2 == 0) terms.push_back("even");
    if (i % 3 == 0) terms.push_back("third");
    if (i % 7 == 0) terms.push_back("seventh");
    docs.push_back(std::move(terms));
  }
  ElemList want_even_third;
  {
    InvertedIndex index(CompressedEngine());
    for (std::size_t i = 0; i < docs.size(); ++i) {
      index.AddDocument(static_cast<Elem>(i + 1), docs[i]);
    }
    index.Finalize();
    want_even_third = index.Query(std::vector<std::string>{"even", "third"});
    // The oracle: multiples of 6 (shifted by the 1-based doc id).
    ASSERT_FALSE(want_even_third.empty());
    for (Elem e : want_even_third) ASSERT_EQ((e - 1) % 6, 0u);
    index.Save(path);
  }
  SnapshotInfo info;
  InvertedIndex reloaded = InvertedIndex::Open(path, {}, &info);
  EXPECT_GT(info.sets_compressed, 0u);
  EXPECT_EQ(reloaded.Query(std::vector<std::string>{"even", "third"}),
            want_even_third);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Corruption matrix: malformed compressed sections are typed errors.
// ---------------------------------------------------------------------------

class CompressedCorruptionTest : public testing::Test {
 protected:
  /// One snapshot file's bytes and where its compressed section lies.
  struct Image {
    std::string label;
    std::vector<std::byte> bytes;
    std::size_t section_offset = 0;
    std::size_t section_size = 0;
  };

  void SetUp() override {
    // Unique per test: ctest runs each test as its own process, possibly
    // in parallel — a shared path would let one test truncate the file
    // under another's mmap.
    path_ = TempPath(
        std::string("corrupt_") +
        testing::UnitTest::GetInstance()->current_test_info()->name());
    Xoshiro256 rng(0xBAD);
    const auto lists =
        GenerateIntersectingSets({700, 1400}, 60, 1 << 18, rng);
    // The matrix runs over two images: one the engine writes today
    // (m = 0 image words per group) and one as older planner engines
    // wrote it (m = 1).
    {
      Engine comp = CompressedEngine();
      auto prepared = PrepareAll(comp, lists);
      for (const PreparedSet& s : prepared) ASSERT_TRUE(s.compressed());
      comp.SaveSnapshot(path_, std::span<const PreparedSet>(prepared));
      images_.push_back(ReadImage("engine-written, m = 0"));
    }
    test::WriteCompressedPlannerSnapshot(path_, lists, {1, 1});
    images_.push_back(ReadImage("m = 1"));
  }

  void TearDown() override { std::remove(path_.c_str()); }

  Image ReadImage(const std::string& label) {
    Image image;
    image.label = label;
    std::ifstream in(path_, std::ios::binary);
    std::vector<char> chars((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    image.bytes.resize(chars.size());
    std::memcpy(image.bytes.data(), chars.data(), chars.size());
    // Locate the compressed section via the container's own reader.
    storage::SnapshotReader reader(image.bytes);
    for (const storage::SectionEntry& e : reader.entries()) {
      if (e.type == storage::kSectionCompressed) {
        image.section_offset = static_cast<std::size_t>(e.offset);
        image.section_size = static_cast<std::size_t>(e.size);
      }
    }
    EXPECT_GT(image.section_size, 0u) << label << ": compressed section missing";
    return image;
  }

  /// Runs `patch` on a fresh copy of every image and expects the patched
  /// file to fail its load with kCorrupt.
  template <class Patch>
  void ExpectCorruptOnEveryImage(Patch patch) {
    for (const Image& image : images_) {
      SCOPED_TRACE(image.label);
      Use(image);
      patch();
      auto code = PatchedLoadError();
      ASSERT_TRUE(code.has_value());
      EXPECT_EQ(*code, SnapshotErrorCode::kCorrupt);
    }
  }

  /// Makes `image` the one the patch helpers below edit.
  void Use(const Image& image) {
    bytes_ = image.bytes;
    section_offset_ = image.section_offset;
    section_size_ = image.section_size;
  }

  /// Patches the in-memory image back to disk and loads with checksum
  /// verification OFF, so the test exercises the structural validation
  /// behind the CRC, not the CRC itself.  Returns the error code, or
  /// nullopt if the load succeeded.
  std::optional<SnapshotErrorCode> PatchedLoadError() {
    WriteBytes();
    try {
      (void)Engine::LoadSnapshot(path_, {.verify_checksums = false});
    } catch (const SnapshotError& e) {
      return e.code();
    }
    return std::nullopt;
  }

  void WriteBytes() {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes_.data()),
              static_cast<std::streamsize>(bytes_.size()));
  }

  /// The byte offset of field `field_offset` inside compressed record `i`.
  std::size_t RecordField(std::size_t i, std::size_t field_offset) const {
    return section_offset_ + i * sizeof(test::CompressedRecord) +
           field_offset;
  }

  void Patch64(std::size_t at, std::uint64_t value) {
    std::memcpy(bytes_.data() + at, &value, sizeof(value));
  }
  void Patch32(std::size_t at, std::uint32_t value) {
    std::memcpy(bytes_.data() + at, &value, sizeof(value));
  }

  std::string path_;
  std::vector<Image> images_;
  std::vector<std::byte> bytes_;
  std::size_t section_offset_ = 0;
  std::size_t section_size_ = 0;
};

TEST_F(CompressedCorruptionTest, EveryImageLoadsUnpatched) {
  for (const Image& image : images_) {
    SCOPED_TRACE(image.label);
    Use(image);
    EXPECT_FALSE(PatchedLoadError().has_value());
  }
}

TEST_F(CompressedCorruptionTest, BitFlipIsCaughtByTheChecksumWhenOn) {
  for (const Image& image : images_) {
    SCOPED_TRACE(image.label);
    Use(image);
    bytes_[section_offset_ + section_size_ / 2] ^= std::byte{0x10};
    WriteBytes();
    try {
      (void)Engine::LoadSnapshot(path_);  // verify_checksums defaults on
      FAIL() << "corrupt section loaded";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.code(), SnapshotErrorCode::kChecksum);
    }
  }
}

TEST_F(CompressedCorruptionTest, OutOfRangeSetIndex) {
  ExpectCorruptOnEveryImage([&] {
    Patch32(RecordField(0, 0), 0xFFFF);  // set_index far past set_count
  });
}

TEST_F(CompressedCorruptionTest, DuplicateSetIndex) {
  ExpectCorruptOnEveryImage([&] {
    // Both records claim set 0.
    std::uint32_t first = 0;
    std::memcpy(&first, bytes_.data() + RecordField(0, 0), sizeof(first));
    Patch32(RecordField(1, 0), first);
  });
}

TEST_F(CompressedCorruptionTest, UnknownCodec) {
  ExpectCorruptOnEveryImage([&] { Patch32(RecordField(0, 4), 77); });
}

TEST_F(CompressedCorruptionTest, ImageCountMismatch) {
  // An image count the stream was not encoded with, a count past 64, and
  // one that reads as negative.
  for (std::uint32_t m : {2u, 9u, 65u, 0xFFFFFFFFu}) {
    SCOPED_TRACE(m);
    ExpectCorruptOnEveryImage([&] { Patch32(RecordField(0, 12), m); });
  }
}

TEST_F(CompressedCorruptionTest, BitsRefOutOfPayloadBounds) {
  ExpectCorruptOnEveryImage([&] {
    Patch64(RecordField(0, 40), std::uint64_t{1} << 40);  // bits.offset
  });
}

TEST_F(CompressedCorruptionTest, SkipsRefOutOfPayloadBounds) {
  ExpectCorruptOnEveryImage([&] {
    Patch64(RecordField(0, 56), std::uint64_t{1} << 40);  // skips.offset
  });
}

TEST_F(CompressedCorruptionTest, BitCountBeyondTheBitsArray) {
  ExpectCorruptOnEveryImage([&] {
    Patch64(RecordField(0, 32), std::uint64_t{1} << 30);  // bit_count
  });
}

TEST_F(CompressedCorruptionTest, InflatedElementCount) {
  ExpectCorruptOnEveryImage([&] {
    Patch64(RecordField(0, 16), std::uint64_t{1} << 30);  // n
  });
}

TEST_F(CompressedCorruptionTest, TruncatedSectionNotARecordMultiple) {
  ExpectCorruptOnEveryImage([&] {
    // Shrink the section's declared size by one byte (the entry is not
    // itself checksummed; the structural size check must fire).
    storage::SnapshotReader reader(bytes_);
    const auto entries = reader.entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].type == storage::kSectionCompressed) {
        const std::size_t entry_at =
            static_cast<std::size_t>(reader.header().table_offset) +
            i * sizeof(storage::SectionEntry) +
            offsetof(storage::SectionEntry, size);
        Patch64(entry_at, entries[i].size - 1);
      }
    }
  });
}

TEST_F(CompressedCorruptionTest, FuzzedRecordBytesNeverCrash) {
  // Randomly clobber compressed-record fields; every outcome must be a
  // clean load or a typed SnapshotError — never UB (ASan enforces).
  const std::size_t iters = 40 * StressIters();
  Xoshiro256 rng(0xF022);
  for (const Image& image : images_) {
    for (std::size_t iter = 0; iter < iters; ++iter) {
      Use(image);
      const std::size_t flips = 1 + rng.Next() % 8;
      for (std::size_t f = 0; f < flips; ++f) {
        const std::size_t at = section_offset_ + rng.Next() % section_size_;
        bytes_[at] ^= std::byte{static_cast<unsigned char>(
            1u << (rng.Next() % 8))};
      }
      (void)PatchedLoadError();  // either outcome is fine; crashing is not
    }
  }
}

}  // namespace
}  // namespace fsi
