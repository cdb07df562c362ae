// Shared helpers for the per-figure benchmark binaries.
//
// Every bench binary regenerates one table or figure of the paper's
// evaluation (see DESIGN.md §2).  Defaults are scaled down so the whole
// suite runs in minutes on one core; set FSI_BENCH_FULL=1 to run at paper
// scale (10M-element sets, 10^4-query workloads).

#ifndef FSI_BENCH_BENCH_UTIL_H_
#define FSI_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "api/registry.h"
#include "core/algorithm.h"

namespace fsi::bench {

/// True when FSI_BENCH_FULL=1: paper-scale workloads.
inline bool FullScale() {
  const char* env = std::getenv("FSI_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

/// Timing for build-time rows (fig10/fig11): each of 5 repetitions runs
/// for at least 0.2 s, and the row reports the repetitions' median (plus
/// mean, stddev and cv), so one row samples the host over a second or
/// more instead of a few iterations.
inline benchmark::internal::Benchmark* BuildTimeRow(
    benchmark::internal::Benchmark* b) {
  return b->MinTime(0.2)->Repetitions(5)->ReportAggregatesOnly(true);
}

/// A query ready to run: the engine, its owning prepared-set handles, and
/// a prebuilt reusable Query (constructed once so the timed loop measures
/// only the intersection, exactly like the paper's harness).
struct PreparedQuery {
  Engine engine;
  std::vector<PreparedSet> sets;
  mutable fsi::Query query;

  /// Computes the result *set* (order unspecified) — what the paper times;
  /// see IntersectionAlgorithm::IntersectUnordered.
  void Run(ElemList* out) const { query.ExecuteInto(out); }

  std::size_t StructureWords() const {
    std::size_t words = 0;
    for (const PreparedSet& s : sets) words += s.SizeInWords();
    return words;
  }
};

/// Builds a PreparedQuery for the registry spec `spec` (a name, optionally
/// with options: "RanGroupScan:m=2") over `lists`.
inline PreparedQuery Prepare(std::string_view spec,
                             const std::vector<ElemList>& lists,
                             std::uint64_t seed = kDefaultAlgorithmSeed) {
  Engine engine(spec, {.seed = seed});
  std::vector<PreparedSet> sets;
  sets.reserve(lists.size());
  for (const ElemList& l : lists) sets.push_back(engine.Prepare(l));
  fsi::Query query = engine.Query(sets);
  query.Unordered();
  return PreparedQuery{std::move(engine), std::move(sets), std::move(query)};
}

/// google-benchmark body: repeatedly runs the prepared query.  Reports the
/// result size as a counter so series can be sanity-checked against the
/// workload definition.
inline void RunPrepared(benchmark::State& state, const PreparedQuery& query) {
  ElemList out;
  for (auto _ : state) {
    query.Run(&out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["result_size"] =
      static_cast<double>(out.size());
  state.counters["struct_MiB"] =
      static_cast<double>(query.StructureWords()) * 8.0 / (1 << 20);
}

}  // namespace fsi::bench

#endif  // FSI_BENCH_BENCH_UTIL_H_
