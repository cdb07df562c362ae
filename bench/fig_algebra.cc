// Boolean query algebra: evaluation cost and memoization payoff across
// OR-width × tree depth × cache hit-rate (api/expr.h, docs/ALGEBRA.md).
//
// Each configuration builds one expression tree over fixed-seed posting
// lists — alternating OR (fan-out `width`) and AND levels down to
// `depth` — and evaluates it through Engine::Query(Expr) at a controlled
// ExprCache hit rate:
//   * hit:0   — the cache is cleared before every evaluation (cold);
//   * hit:50  — cleared before every second evaluation;
//   * hit:100 — warmed once, every timed evaluation is a root hit.
//
// scripts/bench_summary.py condenses the export into the
// ``query_algebra`` section of BENCH_pr.json, whose memoized speedup
// (hit:0 time over hit:100 time, best configuration) CI gates
// (scripts/bench_gates.py) — the result cache must make hot subtree
// re-evaluation essentially free.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "api/expr.h"
#include "bench/bench_util.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace {

using namespace fsi;
using namespace fsi::bench;

/// One prepared configuration: the engine, its leaves, and the tree.
struct Ctx {
  Engine engine;
  std::vector<PreparedSet> sets;
  Expr expr;
};

/// Alternating OR/AND tree: OR at the root (and every even level) with
/// `width` children, AND pairs at odd levels, distinct leaves throughout
/// — wide unions of selective conjunctions, the filtered-search shape.
Expr BuildTree(const std::vector<PreparedSet>& sets, std::size_t width,
               std::size_t depth, std::size_t* next_leaf) {
  if (depth == 0) {
    const PreparedSet& leaf = sets[*next_leaf % sets.size()];
    ++*next_leaf;
    return Expr::Set(leaf);
  }
  const bool or_level = (depth % 2) == 0;
  const std::size_t fan = or_level ? width : 2;
  std::vector<Expr> children;
  children.reserve(fan);
  for (std::size_t i = 0; i < fan; ++i) {
    children.push_back(BuildTree(sets, width, depth - 1, next_leaf));
  }
  return or_level ? Expr::Or(std::move(children))
                  : Expr::And(std::move(children));
}

Ctx& GetCtx(std::size_t width, std::size_t depth) {
  static std::map<std::tuple<std::size_t, std::size_t>,
                  std::unique_ptr<Ctx>>
      cache;
  auto key = std::make_tuple(width, depth);
  auto it = cache.find(key);
  if (it == cache.end()) {
    auto ctx = std::make_unique<Ctx>();
    const std::size_t n = FullScale() ? 200000 : 20000;
    const std::uint64_t universe = FullScale() ? (1ull << 26) : (1ull << 22);
    Xoshiro256 rng(17);
    for (int i = 0; i < 24; ++i) {
      ctx->sets.push_back(
          ctx->engine.Prepare(SampleSortedSet(n, universe, rng)));
    }
    std::size_t next_leaf = 0;
    ctx->expr = BuildTree(ctx->sets, width, depth, &next_leaf);
    it = cache.emplace(key, std::move(ctx)).first;
  }
  return *it->second;
}

void BM_Algebra(benchmark::State& state, std::size_t width, std::size_t depth,
                int hit_pct) {
  Ctx& ctx = GetCtx(width, depth);
  ElemList out;
  fsi::Query query = ctx.engine.Query(ctx.expr);
  if (hit_pct == 100) query.ExecuteInto(&out);  // warm every entry
  std::size_t evals = 0;
  for (auto _ : state) {
    if (hit_pct == 0 || (hit_pct == 50 && evals % 2 == 0)) {
      state.PauseTiming();
      ctx.engine.expr_cache()->Clear();
      state.ResumeTiming();
    }
    query.ExecuteInto(&out);
    benchmark::DoNotOptimize(out.data());
    ++evals;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(evals));
  state.counters["width"] = static_cast<double>(width);
  state.counters["depth"] = static_cast<double>(depth);
  state.counters["hit_pct"] = static_cast<double>(hit_pct);
  state.counters["result_size"] = static_cast<double>(out.size());
  state.counters["num_leaves"] = static_cast<double>(ctx.expr.num_leaves());
}

void RegisterAll() {
  const std::vector<std::size_t> widths = {2, 4, 8};
  const std::vector<std::size_t> depths = {2, 3, 4};
  const std::vector<int> hit_rates = {0, 50, 100};
  for (std::size_t width : widths) {
    for (std::size_t depth : depths) {
      for (int hit : hit_rates) {
        const std::string name =
            "algebra/width:" + std::to_string(width) +
            "/depth:" + std::to_string(depth) + "/hit:" + std::to_string(hit);
        benchmark::RegisterBenchmark(
            name.c_str(),
            [width, depth, hit](benchmark::State& state) {
              BM_Algebra(state, width, depth, hit);
            })
            ->Unit(benchmark::kMicrosecond);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
