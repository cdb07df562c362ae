// Figure 10 (Appendix C.1): "Preprocessing Overhead" (uncompressed).
//
// Construction time of each structure vs set size, against an in-memory
// quicksort baseline (all structures require sorted input, so sorting is
// the natural yardstick).  The paper finds the additional construction
// overhead to be a small multiple of the sorting cost.
//
// Every row is the median of 5 repetitions of at least 0.2 s each
// (BuildTimeRow in bench_util.h).  On a shared host a whole process can
// still run uniformly slower than another; its rows' ratios to the
// Sorting row of the same n vary less between processes.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <vector>

#include "bench/bench_util.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace {

using namespace fsi;
using namespace fsi::bench;

const ElemList& SortedSet(std::size_t n) {
  static std::map<std::size_t, ElemList> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    Xoshiro256 rng(0xF161000 + n);
    it = cache.emplace(n, SampleSortedSet(n, 20 * static_cast<std::uint64_t>(n), rng))
             .first;
  }
  return it->second;
}

void BM_Sorting(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  const ElemList& sorted = SortedSet(n);
  // Shuffle a copy once; each iteration sorts a fresh copy.
  ElemList shuffled = sorted;
  Xoshiro256 rng(7);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Below(i)]);
  }
  for (auto _ : state) {
    ElemList copy = shuffled;
    std::sort(copy.begin(), copy.end());
    benchmark::DoNotOptimize(copy.data());
  }
}

void RegisterAll() {
  std::vector<std::int64_t> sizes;
  if (FullScale()) {
    sizes = {1000000, 2000000, 4000000, 8000000, 10000000};
  } else {
    sizes = {1 << 15, 1 << 17, 1 << 19};
  }
  for (auto n : sizes) {
    BuildTimeRow(benchmark::RegisterBenchmark("fig10/Sorting", BM_Sorting)
                     ->Arg(n)
                     ->Unit(benchmark::kMillisecond));
  }
  const std::vector<std::string> algorithms = {
      "HashBin", "IntGroup", "RanGroup", "RanGroupScan", "Merge", "Lookup",
      "SkipList", "Hash"};
  for (const auto& alg : algorithms) {
    for (auto n : sizes) {
      std::string label = "fig10/" + alg + "/n:" + std::to_string(n);
      BuildTimeRow(
          benchmark::RegisterBenchmark(
              label.c_str(),
              [alg, n](benchmark::State& st) {
                const ElemList& set = SortedSet(static_cast<std::size_t>(n));
                auto algorithm = AlgorithmRegistry::Global().Create(alg);
                for (auto _ : st) {
                  auto pre = algorithm->Preprocess(set);
                  benchmark::DoNotOptimize(pre.get());
                }
              })
              ->Unit(benchmark::kMillisecond));
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
