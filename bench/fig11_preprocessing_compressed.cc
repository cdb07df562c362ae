// Figure 11 (Appendix C.1): "Preprocessing Overhead (with compression)".
//
// Construction time of the compressed structures vs sorting.  The paper
// finds the Lowbits scheme significantly cheaper to build than the γ/δ
// alternatives (fixed-width fields vs per-value variable-length coding).
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
    Xoshiro256 rng(0xF161100 + n);
    it = cache.emplace(n, SampleSortedSet(n, 8 * static_cast<std::uint64_t>(n), rng))
             .first;
  }
  return it->second;
}

void RegisterAll() {
  std::vector<std::int64_t> sizes;
  if (FullScale()) {
    sizes = {65536, 262144, 1048576, 4194304, 8388608};
  } else {
    sizes = {1 << 14, 1 << 16, 1 << 18};
  }
  BuildTimeRow(benchmark::RegisterBenchmark(
                   "fig11/Sorting",
                   [](benchmark::State& st) {
                     std::size_t n = static_cast<std::size_t>(st.range(0));
                     ElemList shuffled = SortedSet(n);
                     Xoshiro256 rng(9);
                     for (std::size_t i = shuffled.size(); i > 1; --i) {
                       std::swap(shuffled[i - 1], shuffled[rng.Below(i)]);
                     }
                     for (auto _ : st) {
                       ElemList copy = shuffled;
                       std::sort(copy.begin(), copy.end());
                       benchmark::DoNotOptimize(copy.data());
                     }
                   })
                   ->ArgsProduct({{sizes}})
                   ->Unit(benchmark::kMillisecond));

  // Construction is encode-bound (serial BitWriter), so the decode-tier
  // option must not move these numbers; the ":simd=off" Lowbits row is
  // the control demonstrating that.
  const std::vector<std::string> algorithms = {
      "RanGroupScan_Lowbits", "RanGroupScan_Lowbits:simd=off",
      "RanGroupScan_Gamma",   "RanGroupScan_Delta",
      "Merge_Gamma",          "Merge_Delta",
      "Lookup_Delta"};
  for (const auto& alg : algorithms) {
    for (auto n : sizes) {
      std::string label = "fig11/" + alg + "/n:" + std::to_string(n);
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
