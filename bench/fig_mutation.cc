// Mutation overhead (beyond the paper): query latency as a function of
// the delta-tier fill fraction of a mutable prepared set, the cost of
// compaction, and sustained single-writer mutation throughput.
//
// The paper's structures are build-once; PR 6's mutable sets bolt a
// sorted delta tier (insert buffer + erase tombstones, core/delta_set.h)
// onto an unchanged base structure, which every query then folds in.
// The question this harness answers: what does that fixup cost at 0 / 1 /
// 5 / 10 / 20 % fill, and does compaction restore the baseline?
//
// Read the output as two curves plus two scalars:
//   mutation/query_vs_fill/fill:F   k=2 intersection latency with the
//                                   mutable operand carrying an F% delta
//                                   (fill:0 is the freshly-prepared
//                                   baseline the others are judged by),
//                                   on the default ordered sink whose
//                                   fixup is two linear merges;
//   mutation/query_vs_fill_unordered/fill:F
//                                   the same with .Unordered(), which
//                                   must instead screen every result
//                                   element against the tombstones
//                                   (Bloom-gated probes — a full extra
//                                   pass, so the ratio is higher);
//   mutation/expr_and_vs_fill/fill:F
//                                   the same pair as
//                                   Engine::Query(Expr::And(...)) with
//                                   no Expr cache, so every iteration
//                                   evaluates: the conjunction executor
//                                   behind flat queries, reached through
//                                   the evaluator (CI gates it against
//                                   the flat row at fill:10);
//   mutation/post_compaction        the same query after Compact() — the
//                                   delta is gone, so this should sit on
//                                   the fill:0 baseline again;
//   mutation/compact_cost/fill:F    one synchronous Compact() of an F%
//                                   delta (rebuild + publish);
//   mutation/insert_throughput      Insert() calls per second against a
//                                   large base (sorted-delta copy + COW
//                                   publish per call).
//
//   ./build/bench/fig_mutation
//   ./build/bench/fig_mutation --benchmark_format=json  # CI artifact
//
// scripts/bench_summary.py turns the JSON into the `mutation_overhead`
// section of BENCH_pr.json (overhead ratios vs the fill:0 baseline).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "api/expr.h"
#include "bench/bench_util.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace {

using namespace fsi;
using namespace fsi::bench;

std::size_t BaseSize() { return FullScale() ? (1u << 21) : (1u << 17); }
constexpr std::uint64_t kUniverse = 1ull << 26;

// The shared immutable workload: one base list, one companion the queries
// intersect it with (~50% overlap), and a disjoint pool of fresh values
// for inserts.  Built once per binary.
struct Workload {
  ElemList base;
  ElemList companion;
  ElemList fresh;  // values not in `base`, for inserts

  static const Workload& Get() {
    static Workload* w = [] {
      auto* out = new Workload();
      Xoshiro256 rng(0x4d5721ULL);
      out->base = SampleSortedSet(BaseSize(), kUniverse, rng);
      // Companion: every other base element plus private elements.
      ElemList priv = SampleSortedSet(BaseSize() / 2, kUniverse, rng);
      for (std::size_t i = 0; i < out->base.size(); i += 2) {
        out->companion.push_back(out->base[i]);
      }
      out->companion.insert(out->companion.end(), priv.begin(), priv.end());
      std::sort(out->companion.begin(), out->companion.end());
      out->companion.erase(
          std::unique(out->companion.begin(), out->companion.end()),
          out->companion.end());
      // Fresh values: offset past the universe, so never in base.
      for (std::size_t i = 0; i < out->base.size(); ++i) {
        out->fresh.push_back(static_cast<Elem>(kUniverse + 2 * i));
      }
      return out;
    }();
    return *w;
  }
};

// Mutates `set` until its delta holds `fill_pct`% of the base size:
// half fresh inserts, half erases of existing base elements.
void FillDelta(PreparedSet& set, int fill_pct) {
  const Workload& w = Workload::Get();
  std::size_t target = w.base.size() * static_cast<std::size_t>(fill_pct) / 100;
  std::size_t half = target / 2;
  for (std::size_t i = 0; i < half; ++i) set.Insert(w.fresh[i]);
  // Erase odd-index base elements (the even ones feed the companion, so
  // the base part of the result stays comparable across fill levels).
  for (std::size_t i = 0; i < target - half; ++i) {
    set.Erase(w.base[2 * i + 1]);
  }
}

// The query shapes QueryVsFill's second argument selects.
enum QueryShape { kOrdered = 0, kUnordered = 1, kExprAnd = 2 };

void QueryVsFill(benchmark::State& state) {
  const int fill_pct = static_cast<int>(state.range(0));
  const auto shape = static_cast<QueryShape>(state.range(1));
  const Workload& w = Workload::Get();
  // The zero-config planner, as a production caller would use, minus the
  // Expr cache: every kExprAnd iteration evaluates (flat queries never
  // consult the cache).
  Engine engine("Planner", {.expr_cache_bytes = 0});
  // Manual compaction only: the point is to hold the delta at the target
  // fill across the whole timed loop.
  PreparedSet target =
      engine.PrepareMutable(w.base, {.background_compaction = false});
  PreparedSet companion = engine.Prepare(w.companion);
  FillDelta(target, fill_pct);
  fsi::Query query =
      shape == kExprAnd
          ? engine.Query(Expr::And({Expr::Set(target), Expr::Set(companion)}))
          : engine.Query({&target, &companion});
  if (shape == kUnordered) query.Unordered();
  ElemList out;
  for (auto _ : state) {
    query.ExecuteInto(&out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["fill_pct"] = static_cast<double>(fill_pct);
  state.counters["delta"] = static_cast<double>(target.delta_size());
  state.counters["result_size"] = static_cast<double>(out.size());
}

void PostCompaction(benchmark::State& state) {
  const Workload& w = Workload::Get();
  Engine engine;
  PreparedSet target =
      engine.PrepareMutable(w.base, {.background_compaction = false});
  PreparedSet companion = engine.Prepare(w.companion);
  FillDelta(target, 10);
  target.Compact();  // fold the 10% delta back into the base structure
  fsi::Query query = engine.Query({&target, &companion});
  ElemList out;
  for (auto _ : state) {
    query.ExecuteInto(&out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["delta"] = static_cast<double>(target.delta_size());
  state.counters["result_size"] = static_cast<double>(out.size());
}

void CompactCost(benchmark::State& state) {
  const int fill_pct = static_cast<int>(state.range(0));
  const Workload& w = Workload::Get();
  Engine engine;
  for (auto _ : state) {
    state.PauseTiming();  // refill the delta outside the measurement
    PreparedSet target =
        engine.PrepareMutable(w.base, {.background_compaction = false});
    FillDelta(target, fill_pct);
    state.ResumeTiming();
    target.Compact();
    benchmark::DoNotOptimize(target.delta_size());
  }
  state.counters["fill_pct"] = static_cast<double>(fill_pct);
  state.counters["base_n"] = static_cast<double>(w.base.size());
}

void InsertThroughput(benchmark::State& state) {
  const Workload& w = Workload::Get();
  Engine engine;
  // Background compaction on — this measures the production write path,
  // periodic rebuild scheduling included.
  PreparedSet target = engine.PrepareMutable(w.base);
  std::size_t i = 0;
  for (auto _ : state) {
    // Cycle through fresh values; wrap with erases so the set stays
    // bounded on long runs.
    Elem x = w.fresh[i % w.fresh.size()];
    if (i < w.fresh.size()) {
      target.Insert(x);
    } else {
      target.Erase(x);
    }
    if (++i == 2 * w.fresh.size()) i = 0;
    benchmark::DoNotOptimize(i);
  }
  target.WaitForCompaction();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["base_n"] = static_cast<double>(w.base.size());
}

void RegisterAll() {
  for (int fill : {0, 1, 5, 10, 20}) {
    // Headline curve: the default (document-id-ordered) sink, whose fixup
    // is a pair of linear merges.  CI gates on this one.
    std::string label = "mutation/query_vs_fill/fill:" + std::to_string(fill);
    benchmark::RegisterBenchmark(label.c_str(), QueryVsFill)
        ->Args({fill, kOrdered})
        ->Unit(benchmark::kMicrosecond);
    // The unordered sink pays an extra full pass over the result (Bloom-
    // gated tombstone probes), so it is reported as its own curve.
    std::string ulabel =
        "mutation/query_vs_fill_unordered/fill:" + std::to_string(fill);
    benchmark::RegisterBenchmark(ulabel.c_str(), QueryVsFill)
        ->Args({fill, kUnordered})
        ->Unit(benchmark::kMicrosecond);
    // The same conjunction as an Expr, which must not fork off the flat
    // executor (CI gates expr_vs_flat_at_10).
    std::string elabel =
        "mutation/expr_and_vs_fill/fill:" + std::to_string(fill);
    benchmark::RegisterBenchmark(elabel.c_str(), QueryVsFill)
        ->Args({fill, kExprAnd})
        ->Unit(benchmark::kMicrosecond);
  }
  benchmark::RegisterBenchmark("mutation/post_compaction", PostCompaction)
      ->Unit(benchmark::kMicrosecond);
  for (int fill : {1, 5, 10, 20}) {
    std::string label = "mutation/compact_cost/fill:" + std::to_string(fill);
    benchmark::RegisterBenchmark(label.c_str(), CompactCost)
        ->Arg(fill)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark("mutation/insert_throughput", InsertThroughput)
      ->Unit(benchmark::kMicrosecond);
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
