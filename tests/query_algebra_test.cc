// Oracle-differential tests for the boolean query algebra (api/expr.h).
//
// A randomized generator produces expression trees (depth <= 4, all node
// kinds, adversarial operands: the empty set, the whole universe,
// duplicated subtrees) whose expected result is computed bottom-up with
// textbook std::set_* algorithms.  Every tree is then evaluated through
// every Query sink (Materialize / ExecuteInto / Count / Visit / Limit /
// Unordered) on plain engines across algorithm specs, on a mutable-set
// engine that churns between trees, and on ShardedEngine deployments of
// 1/2/4/8 shards — all of which must match the oracle bitwise.
//
// Algebraic identities (De Morgan over a universe set, AND/OR
// idempotence, AtLeast(k) == And, AtLeast(1) == Or) are asserted as
// bitwise result equality, not plan equality: different plans, same
// elements.
//
// FSI_STRESS_ITERS multiplies tree counts (nightly CI runs 10); seeds are
// fixed per iteration so failures reproduce from the message alone.

#include "api/expr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/batch_runner.h"
#include "api/engine.h"
#include "api/planner.h"
#include "serve/sharded_engine.h"
#include "util/rng.h"

namespace fsi {
namespace {

std::size_t StressIters() {
  const char* env = std::getenv("FSI_STRESS_ITERS");
  if (env == nullptr) return 1;
  long v = std::strtol(env, nullptr, 10);
  return v > 0 ? static_cast<std::size_t>(v) : 1;
}

// ---------------------------------------------------------------------------
// Expression specs: a plain description of a tree, independent of any
// engine, from which we build the fsi::Expr, the ShardedExpr, and the
// oracle result.

struct Spec {
  ExprKind kind = ExprKind::kSet;
  std::vector<Spec> children;
  std::size_t threshold = 0;
  std::size_t leaf = 0;  // index into the leaf pool
};

/// The leaf pool: small sets over a tiny universe so random trees collide
/// constantly.  Index 0 is the empty set, index 1 the full universe, the
/// last entry duplicates another — the adversarial operands the optimizer
/// folds (empty AND-operand, X \ X, duplicate dedup) all arise naturally.
std::vector<ElemList> MakePool(Xoshiro256& rng, Elem universe) {
  std::vector<ElemList> pool;
  pool.push_back({});  // empty
  ElemList all(universe);
  for (Elem e = 0; e < universe; ++e) all[e] = e;
  pool.push_back(all);  // the whole universe
  for (int i = 0; i < 7; ++i) {
    const std::size_t n = 1 + rng.Next() % 40;
    ElemList list;
    for (std::size_t j = 0; j < n; ++j) {
      list.push_back(static_cast<Elem>(rng.Next() % universe));
    }
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    pool.push_back(std::move(list));
  }
  pool.push_back(pool[2]);  // a duplicate of an earlier list
  return pool;
}

Spec GenSpec(Xoshiro256& rng, std::size_t pool_size, int depth) {
  if (depth <= 0 || rng.Next() % 100 < 30) {
    Spec leaf;
    leaf.kind = ExprKind::kSet;
    leaf.leaf = rng.Next() % pool_size;
    return leaf;
  }
  Spec spec;
  const std::uint64_t pick = rng.Next() % 4;
  const std::size_t arity = 1 + rng.Next() % 3;  // 1..3 children
  switch (pick) {
    case 0:
      spec.kind = ExprKind::kAnd;
      break;
    case 1:
      spec.kind = ExprKind::kOr;
      break;
    case 2:
      spec.kind = ExprKind::kDiff;
      break;
    default:
      spec.kind = ExprKind::kAtLeast;
      break;
  }
  const std::size_t k = spec.kind == ExprKind::kDiff ? 2 : arity;
  for (std::size_t i = 0; i < k; ++i) {
    spec.children.push_back(GenSpec(rng, pool_size, depth - 1));
  }
  // Adversarial duplicate operand: repeat the first child verbatim.
  if (spec.kind != ExprKind::kDiff && rng.Next() % 100 < 20) {
    spec.children.push_back(spec.children[0]);
  }
  if (spec.kind == ExprKind::kAtLeast) {
    // 1..k+1: includes the degenerate OR/AND ends and the always-empty
    // over-threshold.
    spec.threshold = 1 + rng.Next() % (spec.children.size() + 1);
  }
  return spec;
}

ElemList OracleEval(const Spec& s, const std::vector<ElemList>& pool) {
  switch (s.kind) {
    case ExprKind::kSet:
      return pool[s.leaf];
    case ExprKind::kAnd: {
      ElemList acc = OracleEval(s.children[0], pool);
      for (std::size_t i = 1; i < s.children.size(); ++i) {
        ElemList next = OracleEval(s.children[i], pool);
        ElemList merged;
        std::set_intersection(acc.begin(), acc.end(), next.begin(), next.end(),
                              std::back_inserter(merged));
        acc = std::move(merged);
      }
      return acc;
    }
    case ExprKind::kOr: {
      ElemList acc = OracleEval(s.children[0], pool);
      for (std::size_t i = 1; i < s.children.size(); ++i) {
        ElemList next = OracleEval(s.children[i], pool);
        ElemList merged;
        std::set_union(acc.begin(), acc.end(), next.begin(), next.end(),
                       std::back_inserter(merged));
        acc = std::move(merged);
      }
      return acc;
    }
    case ExprKind::kDiff: {
      ElemList lhs = OracleEval(s.children[0], pool);
      ElemList rhs = OracleEval(s.children[1], pool);
      ElemList out;
      std::set_difference(lhs.begin(), lhs.end(), rhs.begin(), rhs.end(),
                          std::back_inserter(out));
      return out;
    }
    case ExprKind::kAtLeast: {
      // Children count with multiplicity, matching Expr::AtLeast.
      std::map<Elem, std::size_t> counts;
      for (const Spec& c : s.children) {
        for (Elem e : OracleEval(c, pool)) ++counts[e];
      }
      ElemList out;
      for (const auto& [elem, count] : counts) {
        if (count >= s.threshold) out.push_back(elem);
      }
      return out;
    }
    default:
      return {};
  }
}

Expr BuildExpr(const Spec& s, const std::vector<PreparedSet>& sets) {
  switch (s.kind) {
    case ExprKind::kSet:
      return Expr::Set(sets[s.leaf]);
    case ExprKind::kDiff:
      return Expr::Diff(BuildExpr(s.children[0], sets),
                        BuildExpr(s.children[1], sets));
    default: {
      std::vector<Expr> children;
      children.reserve(s.children.size());
      for (const Spec& c : s.children) children.push_back(BuildExpr(c, sets));
      if (s.kind == ExprKind::kAnd) return Expr::And(std::move(children));
      if (s.kind == ExprKind::kOr) return Expr::Or(std::move(children));
      return Expr::AtLeast(s.threshold, std::move(children));
    }
  }
}

ShardedExpr BuildShardedExpr(const Spec& s,
                             const std::vector<ShardedSet>& sets) {
  switch (s.kind) {
    case ExprKind::kSet:
      return ShardedExpr::Set(sets[s.leaf]);
    case ExprKind::kDiff:
      return ShardedExpr::Diff(BuildShardedExpr(s.children[0], sets),
                               BuildShardedExpr(s.children[1], sets));
    default: {
      std::vector<ShardedExpr> children;
      children.reserve(s.children.size());
      for (const Spec& c : s.children) {
        children.push_back(BuildShardedExpr(c, sets));
      }
      if (s.kind == ExprKind::kAnd) return ShardedExpr::And(std::move(children));
      if (s.kind == ExprKind::kOr) return ShardedExpr::Or(std::move(children));
      return ShardedExpr::AtLeast(s.threshold, std::move(children));
    }
  }
}

/// Fixed trees built alike as Expr and ShardedExpr from the leaf pool's
/// handles: one subtree object referenced twice, and None() under every
/// node kind.  Pool index 1 is the whole universe, 2 and 3 random lists.
template <typename E, typename S>
std::vector<E> FixedTrees(const std::vector<S>& sets) {
  const E u = E::Set(sets[1]);
  const E x = E::Set(sets[2]);
  const E x_or_y = E::Or({x, E::Set(sets[3])});
  const E none = E::None();
  return {
      E::And({x, x_or_y, E::AtLeast(1, {x_or_y, none})}),
      E::And({x_or_y, none}),
      E::Or({x, none}),
      E::AtLeast(1, {x, none, x_or_y}),
      E::AtLeast(2, {x_or_y, none, x}),
      E::Diff(x_or_y, none),
      E::Diff(u, E::Or({none, x})),
      none,
  };
}

/// Runs `expr` through every sink and asserts bitwise equality with the
/// oracle.  Results of expression queries are sorted even under
/// Unordered() (documented), so both orderings compare directly.
void CheckAllSinks(const Engine& engine, const Expr& expr,
                   const ElemList& want, const std::string& context) {
  EXPECT_EQ(engine.Query(expr).Materialize(), want) << context;

  ElemList out;
  engine.Query(expr).ExecuteInto(&out);
  EXPECT_EQ(out, want) << context << " [ExecuteInto]";

  EXPECT_EQ(engine.Query(expr).Count(), want.size()) << context << " [Count]";

  ElemList unordered = engine.Query(expr).Unordered().Materialize();
  std::sort(unordered.begin(), unordered.end());
  EXPECT_EQ(unordered, want) << context << " [Unordered]";

  const std::size_t limit = want.size() / 2;
  ElemList limited = engine.Query(expr).Limit(limit).Materialize();
  EXPECT_EQ(limited,
            ElemList(want.begin(),
                     want.begin() + static_cast<std::ptrdiff_t>(limit)))
      << context << " [Limit]";

  ElemList visited;
  engine.Query(expr).Visit([&](Elem e) { visited.push_back(e); });
  EXPECT_EQ(visited, want) << context << " [Visit]";
}

// ---------------------------------------------------------------------------
// Plain engines: every registry family the algebra must compose with.

TEST(QueryAlgebraTest, PlainEnginesMatchOracle) {
  const std::size_t trees = 2600 * StressIters();
  constexpr Elem kUniverse = 192;
  for (const char* spec : {"Planner", "Merge", "RanGroupScan", "Hybrid"}) {
    Engine engine(spec);
    Xoshiro256 pool_rng(42);
    std::vector<ElemList> pool = MakePool(pool_rng, kUniverse);
    std::vector<PreparedSet> sets;
    for (const ElemList& list : pool) sets.push_back(engine.Prepare(list));
    for (std::size_t iter = 0; iter < trees; ++iter) {
      Xoshiro256 rng(1000 + iter);
      Spec tree = GenSpec(rng, pool.size(), 4);
      const Expr expr = BuildExpr(tree, sets);
      const ElemList want = OracleEval(tree, pool);
      CheckAllSinks(engine, expr, want,
                    std::string(spec) + " iter=" + std::to_string(iter));
      if (::testing::Test::HasFailure()) return;  // stop at first divergence
    }
  }
}

// ---------------------------------------------------------------------------
// Mutable engines: leaves churn between trees; every query must see the
// current (post-update) contents — version-keyed memoization may never
// serve a stale result.  Every third leaf is immutable, so conjunctions mix
// mutable leaves with immutable ones — opaque structures on the grouped
// and hashed engines, whose delta fixup intersects the candidates through
// the engine's own algorithm.  IntGroup's arity of 2 sends wider
// conjunctions down the pairwise chain.

TEST(QueryAlgebraTest, MutableEngineMatchesOracleUnderChurn) {
  const std::size_t trees = 2600 * StressIters();
  constexpr Elem kUniverse = 192;
  for (const char* spec :
       {"Planner", "Merge", "HashBin", "RanGroupScan", "IntGroup"}) {
    Engine engine(spec);
    Xoshiro256 pool_rng(43);
    std::vector<ElemList> pool = MakePool(pool_rng, kUniverse);
    std::vector<PreparedSet> sets;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      sets.push_back(i % 3 == 0 ? engine.Prepare(pool[i])
                                : engine.PrepareMutable(pool[i]));
    }
    for (std::size_t iter = 0; iter < trees; ++iter) {
      Xoshiro256 rng(5000 + iter);
      // Churn one random mutable leaf, mirroring the edit into the oracle
      // pool.
      const std::size_t victim = rng.Next() % pool.size();
      const Elem elem = static_cast<Elem>(rng.Next() % kUniverse);
      const bool insert = rng.Next() % 2 == 0;
      ElemList& mirror = pool[victim];
      auto it = std::lower_bound(mirror.begin(), mirror.end(), elem);
      const bool present = it != mirror.end() && *it == elem;
      if (!sets[victim].is_mutable()) {
        // Immutable leaf: nothing to churn.
      } else if (insert) {
        sets[victim].Insert(elem);
        if (!present) mirror.insert(it, elem);
      } else {
        sets[victim].Erase(elem);
        if (present) mirror.erase(it);
      }
      Spec tree = GenSpec(rng, pool.size(), 4);
      const Expr expr = BuildExpr(tree, sets);
      const ElemList want = OracleEval(tree, pool);
      CheckAllSinks(engine, expr, want,
                    std::string(spec) + " mutable iter=" +
                        std::to_string(iter));
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// ShardedEngine: the per-shard evaluation concatenated in shard order
// must equal both the oracle and a single unsharded engine, bitwise, for
// every shard count.  Fixed trees with a shared subtree object and None()
// leaves run ahead of the random stream.

TEST(QueryAlgebraTest, ShardedMatchesSingleEngineAcrossShardCounts) {
  const std::size_t trees = 700 * StressIters();
  constexpr Elem kUniverse = 256;
  Xoshiro256 pool_rng(44);
  std::vector<ElemList> pool = MakePool(pool_rng, kUniverse);

  Engine single;
  std::vector<PreparedSet> single_sets;
  for (const ElemList& list : pool) single_sets.push_back(single.Prepare(list));

  for (std::size_t num_shards : {1u, 2u, 4u, 8u}) {
    ShardedEngineOptions options;
    options.num_shards = num_shards;
    options.universe_bound = kUniverse;
    ShardedEngine sharded(options);
    std::vector<ShardedSet> sharded_sets;
    for (const ElemList& list : pool) sharded_sets.push_back(sharded.Prepare(list));

    const std::vector<Expr> fixed_single = FixedTrees<Expr>(single_sets);
    const std::vector<ShardedExpr> fixed = FixedTrees<ShardedExpr>(sharded_sets);
    for (std::size_t i = 0; i < fixed.size(); ++i) {
      const ElemList want = single.Query(fixed_single[i]).Materialize();
      ServeResult full = sharded.Serve(fixed[i]);
      ASSERT_TRUE(full.ok());
      ASSERT_EQ(full.shards_answered, num_shards);
      ASSERT_EQ(full.elems, want) << "shards=" << num_shards << " fixed=" << i;
    }

    for (std::size_t iter = 0; iter < trees; ++iter) {
      Xoshiro256 rng(9000 + iter);
      Spec tree = GenSpec(rng, pool.size(), 4);
      const ElemList want = OracleEval(tree, pool);
      const ElemList via_single =
          single.Query(BuildExpr(tree, single_sets)).Materialize();
      ASSERT_EQ(via_single, want) << "single iter=" << iter;

      const ShardedExpr expr = BuildShardedExpr(tree, sharded_sets);
      ServeResult full = sharded.Serve(expr);
      ASSERT_TRUE(full.ok());
      ASSERT_EQ(full.elems, want)
          << "shards=" << num_shards << " iter=" << iter;
      ASSERT_EQ(full.result_size, want.size());

      ServeOptions count_options;
      count_options.count_only = true;
      ServeResult counted = sharded.Serve(expr, count_options);
      ASSERT_TRUE(counted.ok());
      ASSERT_EQ(counted.result_size, want.size())
          << "shards=" << num_shards << " iter=" << iter << " [count]";

      ServeOptions limit_options;
      limit_options.limit = want.size() / 2;
      ServeResult limited = sharded.Serve(expr, limit_options);
      ASSERT_TRUE(limited.ok());
      ASSERT_EQ(limited.elems,
                ElemList(want.begin(),
                         want.begin() +
                             static_cast<std::ptrdiff_t>(limit_options.limit)))
          << "shards=" << num_shards << " iter=" << iter << " [limit]";
    }
  }
}

// ---------------------------------------------------------------------------
// Algebraic identities, asserted as bitwise result equality.

TEST(QueryAlgebraTest, AlgebraicIdentities) {
  const std::size_t iters = 200 * StressIters();
  constexpr Elem kUniverse = 192;
  Engine engine;
  Xoshiro256 pool_rng(45);
  std::vector<ElemList> pool = MakePool(pool_rng, kUniverse);
  std::vector<PreparedSet> sets;
  for (const ElemList& list : pool) sets.push_back(engine.Prepare(list));
  const PreparedSet& universe = sets[1];  // MakePool index 1: all elements

  for (std::size_t iter = 0; iter < iters; ++iter) {
    Xoshiro256 rng(7000 + iter);
    Spec sa = GenSpec(rng, pool.size(), 2);
    Spec sb = GenSpec(rng, pool.size(), 2);
    const Expr a = BuildExpr(sa, sets);
    const Expr b = BuildExpr(sb, sets);
    const Expr u = Expr::Set(universe);

    // De Morgan: U \ (a AND b) == (U \ a) OR (U \ b).
    EXPECT_EQ(
        engine.Query(Expr::Diff(u, Expr::And({a, b}))).Materialize(),
        engine.Query(Expr::Or({Expr::Diff(u, a), Expr::Diff(u, b)}))
            .Materialize())
        << "iter=" << iter;
    // De Morgan dual: U \ (a OR b) == (U \ a) AND (U \ b).
    EXPECT_EQ(
        engine.Query(Expr::Diff(u, Expr::Or({a, b}))).Materialize(),
        engine.Query(Expr::And({Expr::Diff(u, a), Expr::Diff(u, b)}))
            .Materialize())
        << "iter=" << iter;
    // Idempotence.
    EXPECT_EQ(engine.Query(Expr::And({a, a})).Materialize(),
              engine.Query(a).Materialize())
        << "iter=" << iter;
    EXPECT_EQ(engine.Query(Expr::Or({a, a})).Materialize(),
              engine.Query(a).Materialize())
        << "iter=" << iter;
    // Threshold degeneration: AtLeast(k) == And, AtLeast(1) == Or.
    EXPECT_EQ(engine.Query(Expr::AtLeast(3, {a, b, a})).Materialize(),
              engine.Query(Expr::And({a, b, a})).Materialize())
        << "iter=" << iter;
    EXPECT_EQ(engine.Query(Expr::AtLeast(1, {a, b})).Materialize(),
              engine.Query(Expr::Or({a, b})).Materialize())
        << "iter=" << iter;
    // X \ X == empty.
    EXPECT_TRUE(engine.Query(Expr::Diff(a, a)).Materialize().empty())
        << "iter=" << iter;
    if (::testing::Test::HasFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Builder and query validation.

TEST(QueryAlgebraTest, BuilderValidation) {
  Engine engine;
  PreparedSet a = engine.Prepare({1, 2, 3});
  EXPECT_THROW(Expr::And({}), std::invalid_argument);
  EXPECT_THROW(Expr::Or({}), std::invalid_argument);
  EXPECT_THROW(Expr::AtLeast(0, {Expr::Set(a)}), std::invalid_argument);
  EXPECT_THROW(Expr::Set(PreparedSet{}), std::invalid_argument);
  EXPECT_THROW(Expr::Diff(Expr{}, Expr::Set(a)), std::invalid_argument);
  EXPECT_THROW(engine.Query(Expr{}), std::invalid_argument);
  // AtLeast above arity is valid — and always empty.
  EXPECT_TRUE(engine.Query(Expr::AtLeast(5, {Expr::Set(a), Expr::Set(a)}))
                  .Materialize()
                  .empty());
}

TEST(QueryAlgebraTest, ForeignLeafThrows) {
  Engine mine;
  Engine other;
  PreparedSet a = mine.Prepare({1, 2, 3});
  PreparedSet b = other.Prepare({2, 3, 4});
  EXPECT_THROW(mine.Query(Expr::And({Expr::Set(a), Expr::Set(b)})),
               std::invalid_argument);
  // Constant folding must not hide the foreign leaf: AND with the empty
  // set folds to None, but validation runs on the original tree.
  PreparedSet empty = mine.Prepare(ElemList{});
  EXPECT_THROW(
      mine.Query(Expr::And({Expr::Set(empty), Expr::Set(b)})),
      std::invalid_argument);
}

TEST(QueryAlgebraTest, ExplainRendersExpressionPlan) {
  Engine engine;
  PreparedSet a = engine.Prepare({1, 2, 3, 7});
  PreparedSet b = engine.Prepare({2, 3, 4, 7});
  PreparedSet c = engine.Prepare({3, 7, 9});
  Expr expr = Expr::Diff(Expr::And({Expr::Set(a), Expr::Set(b)}),
                         Expr::Set(c));
  const std::string text = engine.Query(expr).Explain().ToString();
  EXPECT_NE(text.find("expression plan"), std::string::npos) << text;
  EXPECT_NE(text.find("diff"), std::string::npos) << text;
  EXPECT_NE(text.find("and"), std::string::npos) << text;
}

/// `n` distinct uniform elements of [0, universe), sorted.
ElemList RandomSet(Xoshiro256& rng, std::size_t n, Elem universe) {
  ElemList list;
  while (list.size() < n) {
    for (std::size_t i = list.size(); i < n; ++i) {
      list.push_back(static_cast<Elem>(rng.Next() % universe));
    }
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return list;
}

// Explain labels an AtLeast node [threshold] exactly when the evaluator
// runs the t-threshold path.  Compressed leaves keep no grouped ScanSet,
// so over them both run the count-merge.
TEST(QueryAlgebraTest, ExplainLabelsAtLeastByThePathThatRuns) {
  Xoshiro256 rng(48);
  std::vector<ElemList> lists;
  for (int i = 0; i < 3; ++i) lists.push_back(RandomSet(rng, 2000, 8192));
  std::map<Elem, int> counts;
  for (const ElemList& list : lists) {
    for (Elem e : list) ++counts[e];
  }
  ElemList want;
  for (const auto& [e, count] : counts) {
    if (count >= 2) want.push_back(e);
  }

  struct Case {
    EngineOptions options;
    bool compressed;
    const char* label;
  };
  const Case cases[] = {
      {EngineOptions{.space_budget_bytes = 1, .min_compress_size = 0}, true,
       "[count-merge]"},
      {EngineOptions{}, false, "[threshold]"},
  };
  for (const Case& c : cases) {
    Engine engine("Planner:calibration=off", c.options);
    std::vector<Expr> leaves;
    for (const ElemList& list : lists) {
      PreparedSet set = engine.Prepare(list);
      ASSERT_EQ(set.compressed(), c.compressed);
      leaves.push_back(Expr::Set(set));
    }
    const Expr expr = Expr::AtLeast(2, leaves);
    const std::string text = engine.Query(expr).Explain().ToString();
    EXPECT_NE(text.find(c.label), std::string::npos) << text;
    EXPECT_EQ(engine.Query(expr).Materialize(), want) << c.label;
  }
}

// A structure that records no maximum (RanGroupScan's permuted groups)
// stands for the full 2^32 domain in Explain's density estimates, as in
// the planner's — not for its own size, which would make every leaf look
// like the whole universe.
TEST(QueryAlgebraTest, ExplainEstimatesTrackResultsOnGroupedStructures) {
  Engine engine("RanGroupScan");
  Xoshiro256 rng(47);
  PreparedSet a = engine.Prepare(RandomSet(rng, 20000, Elem{1} << 21));
  PreparedSet b = engine.Prepare(RandomSet(rng, 20000, Elem{1} << 21));
  for (const Expr& expr : {Expr::Diff(Expr::Set(a), Expr::Set(b)),
                           Expr::Or({Expr::Set(a), Expr::Set(b)})}) {
    const double est = engine.Query(expr).Explain().est_result;
    const double actual = static_cast<double>(engine.Query(expr).Count());
    EXPECT_GE(est, actual / 2) << expr.ToString();
    EXPECT_LE(est, actual * 2) << expr.ToString();
  }
}

// ---------------------------------------------------------------------------
// Expression batches through BatchRunner.

TEST(QueryAlgebraTest, BatchRunnerExpressionsMatchSerialLoop) {
  constexpr Elem kUniverse = 192;
  Engine engine;
  Xoshiro256 pool_rng(46);
  std::vector<ElemList> pool = MakePool(pool_rng, kUniverse);
  std::vector<PreparedSet> sets;
  for (const ElemList& list : pool) sets.push_back(engine.Prepare(list));

  std::vector<Expr> exprs;
  std::vector<ElemList> want;
  for (std::size_t iter = 0; iter < 200; ++iter) {
    Xoshiro256 rng(8000 + iter);
    Spec tree = GenSpec(rng, pool.size(), 3);
    exprs.push_back(BuildExpr(tree, sets));
    want.push_back(OracleEval(tree, pool));
  }

  BatchRunner runner(engine, {.num_threads = 4});
  EXPECT_EQ(runner.Materialize(std::span<const Expr>(exprs)), want);
  std::vector<std::size_t> counts =
      runner.Count(std::span<const Expr>(exprs));
  ASSERT_EQ(counts.size(), want.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], want[i].size()) << "i=" << i;
  }
}

}  // namespace
}  // namespace fsi
