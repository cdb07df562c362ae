// Figure 8: "Running Time and Space Requirement" for compressed structures
// (Section 4.1).
//
// Two equal-size sets (128K..8M postings in the paper; scaled by default),
// r = 1% of n.  Series: Merge_Delta, Lookup_Delta, RanGroupScan_Delta and
// RanGroupScan_Lowbits (all with m = 1, per the paper).  Findings:
//   * RanGroupScan beats the compressed baselines at equal codec, because
//     their decompression dominates;
//   * the Lowbits codec improves on RanGroupScan_Delta significantly
//     (filtered groups are skipped in O(1) instead of decoded);
//   * space: RanGroupScan_Lowbits is 1.3-1.9x the compressed inverted index
//     and 1.2-1.6x the compressed Lookup structure — the struct_MiB counter
//     reports the measured sizes.
//   * γ-coding results are indistinguishable from δ (the binaries include
//     both; the paper omitted γ from the plot for this reason).
//
// Decode is no longer scalar-only: the block decoders dispatch through
// simd/decode_kernels.h, so every compressed series runs twice — the
// default ":simd=auto" (CPU-dispatched unpack/prefix-sum kernels) and
// ":simd=off" (the scalar reference).  bench_summary.py's
// compressed_decode section reports the auto/off ratio; CI gates the
// Lowbits rows at >= 1.5x on AVX2 runners.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "codec/bit_stream.h"
#include "core/compressed_scan.h"
#include "simd/decode_kernels.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace {

using namespace fsi;
using namespace fsi::bench;

const std::vector<ElemList>& Workload(std::size_t n) {
  static std::map<std::size_t, std::vector<ElemList>> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    Xoshiro256 rng(0xF160800 + n);
    // The paper's compressed experiments emulate postings: dense doc-id
    // space (gaps are small, so compression bites).
    std::uint64_t universe = 8 * static_cast<std::uint64_t>(n);
    it = cache.emplace(n,
                       GenerateIntersectingSets({n, n}, n / 100, universe, rng))
             .first;
  }
  return it->second;
}

// Pure unpack_bits throughput: a flat buffer of ~1M packed fields through
// the dispatched vs scalar kernel tables.  unpack_bits serves the native
// RanGroupScan_Lowbits scan; the planner's g-space steps run the
// whole-stream lowbits_* kernels instead (the lowbits_kernel rows below).
// bench_summary.py's compressed_decode section and the CI >= 1.5x AVX2
// gate read these rows, not the whole-query ones.
void RegisterDecodeKernelRows() {
  const std::size_t kFields = FullScale() ? (1 << 22) : (1 << 20);
  for (int width : {8, 13, 21}) {
    for (bool dispatched : {true, false}) {
      std::string label = "fig08/decode_kernel/w:" + std::to_string(width) +
                          (dispatched ? "/simd:auto" : "/simd:off");
      benchmark::RegisterBenchmark(
          label.c_str(),
          [width, dispatched, kFields](benchmark::State& st) {
            static std::map<int, std::vector<std::uint64_t>> packed;
            auto it = packed.find(width);
            if (it == packed.end()) {
              BitWriter w;
              Xoshiro256 rng(0xDEC0DE + width);
              for (std::size_t i = 0; i < kFields; ++i) {
                w.Write(rng.Next() & ((std::uint64_t{1} << width) - 1), width);
              }
              w.Write(0, 64);  // straddle slack so every field is in bounds
              it = packed.emplace(width, w.TakeBuffer()).first;
            }
            const std::vector<std::uint64_t>& words = it->second;
            const simd::DecodeKernels& kernels =
                dispatched ? simd::DispatchedDecodeKernels()
                           : simd::ScalarDecodeKernels();
            std::vector<std::uint32_t> out(kFields);
            for (auto _ : st) {
              kernels.unpack_bits(words.data(), words.size(), 0, width, 0,
                                  out.data(), kFields);
              benchmark::DoNotOptimize(out.data());
              benchmark::ClobberMemory();
            }
            st.counters["elems_per_s"] = benchmark::Counter(
                static_cast<double>(st.iterations()) *
                    static_cast<double>(kFields),
                benchmark::Counter::kIsRate);
          })
          ->Unit(benchmark::kMillisecond);
    }
  }
}

// The planner's g-space kernels on a planner-shaped stream: a Lowbits set
// with m = 0 and the group index, t = ceil(log2(n / 8)), over n elements
// sampled from a 2^20 universe (so 32 - t bit fields).  `decode` is
// lowbits_decode of the whole stream (s_per_elem), at the main size and at
// n = 1024 (t = 7, 25-bit fields: the smallest set a planner compresses at
// the default min_compress_size); `filter` is lowbits_filter of the
// g-values of n / ratio elements sampled from the same universe
// (s_per_candidate).  Each row runs through the dispatched and the scalar
// table.  Not gated.
struct LowbitsKernelInput {
  std::unique_ptr<PreprocessedSet> set;
  simd::LowbitsView view;
  std::map<int, std::vector<std::uint32_t>> candidates;  // by ratio
};

const LowbitsKernelInput& LowbitsKernelWorkload(std::size_t n) {
  static std::map<std::size_t, LowbitsKernelInput> cache;
  auto it = cache.find(n);
  if (it != cache.end()) return it->second;
  constexpr std::uint64_t kUniverse = std::uint64_t{1} << 20;
  CompressedScanIntersection::Options options;
  options.seed = kDefaultAlgorithmSeed;
  options.m = 0;
  options.group_index = true;
  const CompressedScanIntersection alg(options);
  Xoshiro256 rng(0x10B175 + n);
  LowbitsKernelInput input;
  input.set = alg.Preprocess(SampleSortedSet(n, kUniverse, rng));
  input.view = static_cast<const CompressedScanSet&>(*input.set)
                   .View(alg.permutation().domain_bits());
  for (int ratio : {4, 16, 64}) {
    std::vector<std::uint32_t> gvals;
    for (Elem e : SampleSortedSet(n / ratio, kUniverse, rng)) {
      gvals.push_back(static_cast<std::uint32_t>(alg.permutation().Apply(e)));
    }
    std::sort(gvals.begin(), gvals.end());
    input.candidates.emplace(ratio, std::move(gvals));
  }
  return cache.emplace(n, std::move(input)).first->second;
}

void RegisterLowbitsKernelRows() {
  const std::size_t n = FullScale() ? 1000000 : 100000;
  const std::string suffix = "/n:" + std::to_string(n);
  for (bool dispatched : {true, false}) {
    const std::string mode = dispatched ? "/simd:auto" : "/simd:off";
    for (std::size_t size : {std::size_t{1024}, n}) {
      benchmark::RegisterBenchmark(
          ("fig08/lowbits_kernel/decode/n:" + std::to_string(size) + mode)
              .c_str(),
          [size, dispatched](benchmark::State& st) {
            const LowbitsKernelInput& input = LowbitsKernelWorkload(size);
            const simd::DecodeKernels& kernels =
                dispatched ? simd::DispatchedDecodeKernels()
                           : simd::ScalarDecodeKernels();
            std::vector<std::uint32_t> out(size);
            for (auto _ : st) {
              kernels.lowbits_decode(input.view, out.data());
              benchmark::DoNotOptimize(out.data());
              benchmark::ClobberMemory();
            }
            st.counters["s_per_elem"] = benchmark::Counter(
                static_cast<double>(st.iterations()) *
                    static_cast<double>(size),
                benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
          });
    }
    for (int ratio : {4, 16, 64}) {
      benchmark::RegisterBenchmark(
          ("fig08/lowbits_kernel/filter/ratio:" + std::to_string(ratio) +
           suffix + mode)
              .c_str(),
          [n, ratio, dispatched](benchmark::State& st) {
            const LowbitsKernelInput& input = LowbitsKernelWorkload(n);
            const std::vector<std::uint32_t>& cand =
                input.candidates.at(ratio);
            const simd::DecodeKernels& kernels =
                dispatched ? simd::DispatchedDecodeKernels()
                           : simd::ScalarDecodeKernels();
            std::vector<std::uint32_t> out(cand.size());
            std::size_t kept = 0;
            for (auto _ : st) {
              kept = kernels.lowbits_filter(input.view, cand.data(),
                                            cand.size(), out.data());
              benchmark::DoNotOptimize(out.data());
              benchmark::ClobberMemory();
            }
            st.counters["result_size"] = static_cast<double>(kept);
            st.counters["s_per_candidate"] = benchmark::Counter(
                static_cast<double>(st.iterations()) *
                    static_cast<double>(cand.size()),
                benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
          });
    }
  }
}

// The permute kernel: g (`apply`, what every set build runs) and g^-1
// (`invert`, what every g-space query runs over its results) over 65536
// random 32-bit values in place, through the dispatched and the scalar
// table (s_per_value).  Not gated.
void RegisterPermutationRows() {
  constexpr std::size_t kValues = 65536;
  for (bool inverse : {false, true}) {
    for (bool dispatched : {true, false}) {
      benchmark::RegisterBenchmark(
          (std::string("fig08/permutation/") + (inverse ? "invert" : "apply") +
           "/n:" + std::to_string(kValues) +
           (dispatched ? "/simd:auto" : "/simd:off"))
              .c_str(),
          [inverse, dispatched](benchmark::State& st) {
            const FeistelPermutation g(32, kDefaultAlgorithmSeed);
            Xoshiro256 rng(0x9E2A);
            std::vector<std::uint32_t> vals(kValues);
            for (std::uint32_t& v : vals) {
              v = static_cast<std::uint32_t>(rng.Next());
            }
            const simd::DecodeKernels& kernels =
                dispatched ? simd::DispatchedDecodeKernels()
                           : simd::ScalarDecodeKernels();
            // In place: each iteration permutes the previous one's output,
            // which stays a uniform sample of the domain.
            for (auto _ : st) {
              kernels.permute(g, inverse, vals.data(), vals.size());
              benchmark::DoNotOptimize(vals.data());
              benchmark::ClobberMemory();
            }
            st.counters["s_per_value"] = benchmark::Counter(
                static_cast<double>(st.iterations()) *
                    static_cast<double>(kValues),
                benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
          });
    }
  }
}

// Whole queries through a budgeted planner Engine that mixes the two
// representations: the budget is exactly the footprint of the sets listed
// as `plain`, so they stay uncompressed and every later set overflows it
// and compresses.  The planner runs such a query as one g-space chain —
// merge/gallop against plain g-value arrays, Lowbits group probes into the
// compressed streams, g^-1 and the sort over the results only
// (docs/COMPRESSION.md).  Ordered results; not gated.
PreparedQuery PrepareBudgeted(const std::vector<ElemList>& plain,
                              const std::vector<ElemList>& compressed) {
  std::size_t plain_bytes = 0;
  {
    Engine sizing("Planner", {.seed = kDefaultAlgorithmSeed});
    for (const ElemList& l : plain) {
      plain_bytes += sizing.Prepare(l).SizeInWords() * 8;
    }
  }
  Engine engine("Planner",
                {.seed = kDefaultAlgorithmSeed,
                 .space_budget_bytes = std::max<std::size_t>(plain_bytes, 1),
                 .min_compress_size = 0});
  std::vector<PreparedSet> sets;
  for (const ElemList& l : plain) sets.push_back(engine.Prepare(l));
  for (const ElemList& l : compressed) sets.push_back(engine.Prepare(l));
  fsi::Query query = engine.Query(sets);
  return PreparedQuery{std::move(engine), std::move(sets), std::move(query)};
}

void RegisterBudgetedRows(const std::vector<std::size_t>& sizes) {
  for (std::size_t n : sizes) {
    const long iterations = std::max<long>(1, static_cast<long>((1 << 20) / n));
    // pair: one fig08 list uncompressed, the other compressed.
    benchmark::RegisterBenchmark(
        ("fig08/Planner_budget/pair/n:" + std::to_string(n)).c_str(),
        [n](benchmark::State& st) {
          const std::vector<ElemList>& lists = Workload(n);
          RunPrepared(st, PrepareBudgeted({lists[0]}, {lists[1]}));
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(iterations);
    // triple: an n/16 uncompressed list (a 1-in-16 sample of the first)
    // probing both compressed fig08 lists.
    benchmark::RegisterBenchmark(
        ("fig08/Planner_budget/triple/n:" + std::to_string(n)).c_str(),
        [n](benchmark::State& st) {
          const std::vector<ElemList>& lists = Workload(n);
          ElemList sample;
          for (std::size_t i = 0; i < lists[0].size(); i += 16) {
            sample.push_back(lists[0][i]);
          }
          RunPrepared(st, PrepareBudgeted({sample}, {lists[0], lists[1]}));
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(iterations);
  }
}

void RegisterAll() {
  std::vector<std::size_t> sizes;
  if (FullScale()) {
    sizes = {131072, 262144, 524288, 1048576, 2097152, 4194304, 8388608};
  } else {
    sizes = {1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18};
  }
  // Every compressed series in both decode tiers; Merge is the
  // uncompressed reference.
  const std::vector<std::string> algorithms = {
      "Merge_Delta",
      "Merge_Gamma",
      "Lookup_Delta",
      "Lookup_Gamma",
      "RanGroupScan_Delta",
      "RanGroupScan_Delta:simd=off",
      "RanGroupScan_Gamma",
      "RanGroupScan_Gamma:simd=off",
      "RanGroupScan_Lowbits",
      "RanGroupScan_Lowbits:simd=off",
      "Merge"};
  for (const auto& alg : algorithms) {
    for (std::size_t n : sizes) {
      std::string label = "fig08/" + alg + "/n:" + std::to_string(n);
      long iterations = std::max<long>(1, static_cast<long>((1 << 20) / n));
      benchmark::RegisterBenchmark(
          label.c_str(),
          [alg, n](benchmark::State& st) {
            PreparedQuery q = Prepare(alg, Workload(n));
            RunPrepared(st, q);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(iterations);
    }
  }
  RegisterBudgetedRows(sizes);
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  RegisterDecodeKernelRows();
  RegisterLowbitsKernelRows();
  RegisterPermutationRows();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
