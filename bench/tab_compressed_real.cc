// Section 4.1's real-data compressed experiment (reported in text).
//
// Runs the compressed variants over the simulated real workload and
// reports: speedup of RanGroupScan_Lowbits vs each baseline (paper: 8.4x
// vs Merge+δ, 9.1x vs Merge+γ, 5.7x vs Lookup+δ, 6.2x vs Lookup+γ),
// space relative to uncompressed postings (paper: Lowbits 66%, Merge
// 26-28%, Lookup 35-37%), and worst-case single-query latency ratios
// (paper: Merge+δ worst case 5.2x the Lowbits worst case, etc.).

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/real_workload.h"

int main() {
  using namespace fsi;
  using namespace fsi::bench;
  RealWorkloadDriver driver;
  driver.PrintWorkloadStats();
  std::vector<std::string> algorithms = {
      "RanGroupScan_Lowbits", "RanGroupScan_Delta", "Merge_Delta",
      "Merge_Gamma",          "Lookup_Delta",       "Lookup_Gamma",
      "Merge"};
  auto results = driver.Run(algorithms);

  // Space: preprocess all queried posting lists once per structure.
  std::map<std::string, double> space_words;
  for (const auto& name : algorithms) {
    auto alg = AlgorithmRegistry::Global().Create(name);
    double words = 0;
    std::map<std::size_t, bool> seen;
    for (const TermQuery& q : driver.workload().queries()) {
      for (std::size_t term : q) {
        if (!seen[term]) {
          seen[term] = true;
          words += static_cast<double>(
              alg->Preprocess(driver.corpus().postings(term))->SizeInWords());
        }
      }
    }
    space_words[name] = words;
  }

  const auto& lowbits = results["RanGroupScan_Lowbits"];
  std::printf("tab_compressed_real: RanGroupScan_Lowbits vs baselines\n");
  std::printf("%-22s %10s %12s %12s %14s\n", "algorithm", "mean_ms",
              "speedup_LB", "worst_ms", "space_vs_plain");
  for (const auto& name : algorithms) {
    const auto& r = results[name];
    std::printf("%-22s %10.4f %11.1fx %12.4f %13.0f%%\n", name.c_str(),
                r.mean_ms, r.mean_ms / lowbits.mean_ms, r.worst_ms,
                100.0 * space_words[name] / space_words["Merge"]);
  }
  std::printf("\nworst-case latency ratio vs Lowbits (paper: Merge+delta "
              "5.2x, Merge+gamma 5.6x, Lookup+delta 4.4x, Lookup+gamma "
              "4.9x):\n");
  for (const auto& name :
       {"Merge_Delta", "Merge_Gamma", "Lookup_Delta", "Lookup_Gamma"}) {
    std::printf("  %-14s %5.1fx\n", name,
                results[name].worst_ms / lowbits.worst_ms);
  }
  return 0;
}
