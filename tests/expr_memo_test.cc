// Memoization tests for the expression result cache (api/expr.h).
//
// The contract under test: a cache hit returns a result bitwise
// identical to the cold evaluation it memoized; a mutable-leaf Insert or
// Erase bumps the leaf's version, changing every enclosing node's
// fingerprint, so no query after a write can be served a pre-write
// result.  The concurrency test drives expression batches through
// BatchRunner while a writer churns the leaves — run it under TSan (the
// CI sanitizer legs do) to check the cache's internal locking.

#include "api/expr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include "api/batch_runner.h"
#include "api/engine.h"

namespace fsi {
namespace {

std::size_t StressIters() {
  const char* env = std::getenv("FSI_STRESS_ITERS");
  if (env == nullptr) return 1;
  long v = std::strtol(env, nullptr, 10);
  return v > 0 ? static_cast<std::size_t>(v) : 1;
}

TEST(ExprMemoTest, HitIsBitwiseIdenticalToColdEvaluation) {
  Engine engine;
  ASSERT_NE(engine.expr_cache(), nullptr);
  PreparedSet a = engine.Prepare({1, 3, 5, 7, 9, 11});
  PreparedSet b = engine.Prepare({2, 3, 5, 8, 9, 12});
  PreparedSet c = engine.Prepare({5, 9, 12, 40});
  Expr expr = Expr::Diff(Expr::Or({Expr::Set(a), Expr::Set(c)}), Expr::Set(b));

  const ExprCacheStats before = engine.expr_cache()->stats();
  const ElemList cold = engine.Query(expr).Materialize();
  const ExprCacheStats after_cold = engine.expr_cache()->stats();
  EXPECT_GT(after_cold.misses, before.misses);
  EXPECT_GT(after_cold.insertions, before.insertions);

  const ElemList warm = engine.Query(expr).Materialize();
  const ExprCacheStats after_warm = engine.expr_cache()->stats();
  EXPECT_EQ(warm, cold);
  EXPECT_GT(after_warm.hits, after_cold.hits);
  // The warm run re-used the root's entry: no new insertion needed.
  EXPECT_EQ(after_warm.insertions, after_cold.insertions);
}

TEST(ExprMemoTest, StructurallyEqualTreesShareEntries) {
  Engine engine;
  PreparedSet a = engine.Prepare({1, 2, 3, 8});
  PreparedSet b = engine.Prepare({2, 3, 4, 8});
  // Two independently built but structurally identical trees: the second
  // query must hit the entries the first one inserted.
  const ElemList r1 =
      engine.Query(Expr::And({Expr::Set(a), Expr::Set(b)})).Materialize();
  const ExprCacheStats mid = engine.expr_cache()->stats();
  const ElemList r2 =
      engine.Query(Expr::And({Expr::Set(a), Expr::Set(b)})).Materialize();
  const ExprCacheStats end = engine.expr_cache()->stats();
  EXPECT_EQ(r1, r2);
  EXPECT_GT(end.hits, mid.hits);
}

TEST(ExprMemoTest, SharedSubtreeHitsAcrossDifferentQueries) {
  Engine engine;
  PreparedSet a = engine.Prepare({1, 3, 5, 7});
  PreparedSet b = engine.Prepare({3, 5, 8});
  PreparedSet c = engine.Prepare({5, 7, 8});
  Expr shared = Expr::And({Expr::Set(a), Expr::Set(b)});

  engine.Query(shared).Materialize();  // populates the subtree's entry
  const ExprCacheStats mid = engine.expr_cache()->stats();
  // A different enclosing query containing the same subtree.
  const ElemList combined =
      engine.Query(Expr::Or({shared, Expr::Set(c)})).Materialize();
  const ExprCacheStats end = engine.expr_cache()->stats();
  EXPECT_EQ(combined, (ElemList{3, 5, 7, 8}));
  EXPECT_GT(end.hits, mid.hits);
}

TEST(ExprMemoTest, InsertInvalidatesThroughVersionBump) {
  Engine engine;
  PreparedSet a = engine.PrepareMutable({1, 3, 5});
  PreparedSet b = engine.Prepare({3, 5, 9});
  Expr expr = Expr::Or({Expr::Set(a), Expr::Set(b)});

  EXPECT_EQ(engine.Query(expr).Materialize(), (ElemList{1, 3, 5, 9}));
  a.Insert(2);
  // The leaf's version changed, so the old entry's key can never match —
  // the result must include the new element immediately.
  EXPECT_EQ(engine.Query(expr).Materialize(), (ElemList{1, 2, 3, 5, 9}));
  a.Erase(1);
  EXPECT_EQ(engine.Query(expr).Materialize(), (ElemList{2, 3, 5, 9}));
  // Stability: with no further writes, repetition hits and stays equal.
  const ExprCacheStats mid = engine.expr_cache()->stats();
  EXPECT_EQ(engine.Query(expr).Materialize(), (ElemList{2, 3, 5, 9}));
  EXPECT_GT(engine.expr_cache()->stats().hits, mid.hits);
}

// Entries hold only their results: dropping a set (here mutable, whose
// structure a query snapshots) frees its structure at once, while the
// entry computed over it stays cached until the LRU ages it out.
TEST(ExprMemoTest, DroppedSetIsFreedWhileItsEntryStaysCached) {
  Engine engine;
  PreparedSet b = engine.Prepare({2, 4, 6});
  std::weak_ptr<const PreprocessedSet> structure;
  std::size_t entries = 0;
  {
    PreparedSet a = engine.PrepareMutable({1, 3, 5});
    structure = a.MutableSnapshot().structure;
    EXPECT_EQ(engine.Query(Expr::Or({Expr::Set(a), Expr::Set(b)}))
                  .Materialize(),
              (ElemList{1, 2, 3, 4, 5, 6}));
    entries = engine.expr_cache()->stats().entries;
    ASSERT_GE(entries, 1u);  // the Or entry
  }
  EXPECT_TRUE(structure.expired());
  const ExprCacheStats stats = engine.expr_cache()->stats();
  EXPECT_EQ(stats.entries, entries);
  EXPECT_EQ(stats.evictions, 0u);
}

// A set prepared after another was dropped — possibly in the very memory
// the dropped one used — never matches a result cached over the dropped
// one: leaf identities are never reused.
TEST(ExprMemoTest, DroppedSetsResultsAreNeverServedForLaterSets) {
  Engine engine;
  const ElemList fixed_list{0, 5, 10, 15, 20};
  PreparedSet fixed = engine.Prepare(fixed_list);
  for (Elem round = 0; round < 64; ++round) {
    const ElemList list{round, round + 7, round + 30};
    ElemList want;
    std::set_union(list.begin(), list.end(), fixed_list.begin(),
                   fixed_list.end(), std::back_inserter(want));
    PreparedSet leaf = round % 2 == 0 ? engine.Prepare(list)
                                      : engine.PrepareMutable(list);
    EXPECT_EQ(engine.Query(Expr::Or({Expr::Set(leaf), Expr::Set(fixed)}))
                  .Materialize(),
              want)
        << "round=" << round;
  }
}

TEST(ExprMemoTest, DisabledCacheStillCorrect) {
  EngineOptions options;
  options.expr_cache_bytes = 0;
  Engine engine("Planner", options);
  EXPECT_EQ(engine.expr_cache(), nullptr);
  PreparedSet a = engine.Prepare({1, 2, 3});
  PreparedSet b = engine.Prepare({2, 3, 4});
  Expr expr = Expr::And({Expr::Set(a), Expr::Set(b)});
  EXPECT_EQ(engine.Query(expr).Materialize(), (ElemList{2, 3}));
  EXPECT_EQ(engine.Query(expr).Materialize(), (ElemList{2, 3}));
}

TEST(ExprMemoTest, TinyCacheEvictsButStaysCorrect) {
  EngineOptions options;
  options.expr_cache_bytes = 512;  // a handful of entries at most
  Engine engine("Planner", options);
  std::vector<PreparedSet> sets;
  for (Elem base = 0; base < 40; ++base) {
    sets.push_back(engine.Prepare({base, base + 100, base + 200}));
  }
  for (std::size_t i = 0; i + 1 < sets.size(); ++i) {
    Expr expr = Expr::Or({Expr::Set(sets[i]), Expr::Set(sets[i + 1])});
    const ElemList got = engine.Query(expr).Materialize();
    const Elem lo = static_cast<Elem>(i);
    EXPECT_EQ(got, (ElemList{lo, lo + 1, lo + 100, lo + 101, lo + 200,
                             lo + 201}));
  }
  const ExprCacheStats stats = engine.expr_cache()->stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, 512u);
}

// Concurrent expression batches racing leaf writes.  Correctness here is
// the snapshot contract: each query observes, per leaf, one consistent
// version — so every result must be a union/difference of *some*
// version's contents, which we bound with invariants rather than exact
// oracles.  TSan verifies the cache and snapshot synchronization.
TEST(ExprMemoTest, ConcurrentBatchTrafficUnderChurn) {
  const std::size_t rounds = 20 * StressIters();
  Engine engine;
  PreparedSet a = engine.PrepareMutable({10, 20, 30, 40});
  PreparedSet b = engine.PrepareMutable({20, 40, 60});
  PreparedSet fixed = engine.Prepare({10, 20, 30, 40, 50, 60, 70, 80, 90});

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Elem e = 100;
    while (!stop.load(std::memory_order_relaxed)) {
      a.Insert(e % 90);
      b.Insert((e + 7) % 90);
      a.Erase((e + 31) % 90);
      b.Erase((e + 13) % 90);
      ++e;
    }
  });

  BatchRunner runner(engine, {.num_threads = 4});
  std::vector<Expr> exprs;
  for (int i = 0; i < 32; ++i) {
    // All three shapes; every result is a subset of `fixed`'s contents
    // plus the writer's churn range [0, 90).
    exprs.push_back(Expr::And({Expr::Set(a), Expr::Set(fixed)}));
    exprs.push_back(Expr::Or({Expr::Set(a), Expr::Set(b)}));
    exprs.push_back(Expr::Diff(Expr::Set(fixed), Expr::Set(b)));
    exprs.push_back(
        Expr::AtLeast(2, {Expr::Set(a), Expr::Set(b), Expr::Set(fixed)}));
  }
  for (std::size_t round = 0; round < rounds; ++round) {
    std::vector<ElemList> results =
        runner.Materialize(std::span<const Expr>(exprs));
    ASSERT_EQ(results.size(), exprs.size());
    for (const ElemList& r : results) {
      EXPECT_TRUE(std::is_sorted(r.begin(), r.end()));
      EXPECT_EQ(std::adjacent_find(r.begin(), r.end()), r.end());
      if (!r.empty()) {
        EXPECT_LT(r.back(), 100u);
      }
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  // Quiesced: the engine must now agree exactly with a fresh oracle
  // computed from the final contents.
  ElemList final_a = engine.Query(Expr::Set(a)).Materialize();
  ElemList final_b = engine.Query(Expr::Set(b)).Materialize();
  ElemList expect_or;
  std::set_union(final_a.begin(), final_a.end(), final_b.begin(),
                 final_b.end(), std::back_inserter(expect_or));
  EXPECT_EQ(engine.Query(Expr::Or({Expr::Set(a), Expr::Set(b)})).Materialize(),
            expect_or);
}

}  // namespace
}  // namespace fsi
