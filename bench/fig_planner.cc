// Planner evaluation on the real workload: fsi::PlannerAlgorithm vs every
// static algorithm choice, on the Figure-7 simulated Bing/Wikipedia
// query log.
//
// The paper's point (Figure 7) is that no static choice wins everywhere;
// the planner's job is to track the per-query winner from its cost model
// alone.  This harness reports:
//   * the fig07-style mean-time table with the planner as one more row;
//   * planner_vs_best_static / planner_vs_worst_static — the planner's
//     mean time over the best (worst) static algorithm's mean, overall
//     and per query class (k = 2..5 keywords);
//   * predicted_within_2x — the fraction of queries whose cost-model
//     prediction (QueryStats::predicted_micros) lands within 2x of the
//     measured wall time.
//
// The trailing key-value lines are parsed by scripts/bench_summary.py into
// the planner_vs_best_static section of BENCH_pr.json; CI fails the
// bench-smoke job when the planner falls too far behind the best static
// choice (threshold in scripts/bench_gates.py).

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/real_workload.h"

int main() {
  using namespace fsi;
  using namespace fsi::bench;
  RealWorkloadDriver driver;
  driver.PrintWorkloadStats();

  const std::vector<std::string> statics = {"Merge", "SvS", "RanGroupScan",
                                            "HashBin", "Hybrid"};
  std::vector<std::string> algorithms = statics;
  algorithms.push_back("Planner");
  auto results = driver.Run(algorithms);

  std::printf("fig_planner: planner vs static choice, %zu queries\n",
              driver.workload().queries().size());
  std::printf("%-16s %12s %12s %10s\n", "algorithm", "mean_ms", "worst_ms",
              "win_share");
  for (const auto& name : algorithms) {
    const auto& r = results[name];
    std::printf("%-16s %12.4f %12.4f %9.1f%%\n", name.c_str(), r.mean_ms,
                r.worst_ms, r.best_share * 100.0);
  }

  // Best/worst static mean, overall and per keyword count.
  double best_mean = 1e300, worst_mean = 0.0;
  for (const auto& name : statics) {
    best_mean = std::min(best_mean, results[name].mean_ms);
    worst_mean = std::max(worst_mean, results[name].mean_ms);
  }
  const double planner_mean = results["Planner"].mean_ms;
  std::printf("\nplanner_vs_best_static %.3f\n", planner_mean / best_mean);
  std::printf("planner_vs_worst_static %.3f\n", planner_mean / worst_mean);
  for (const auto& [k, planner_k] : results["Planner"].mean_ms_by_k) {
    double best_k = 1e300;
    for (const auto& name : statics) {
      const auto& by_k = results[name].mean_ms_by_k;
      auto it = by_k.find(k);
      if (it != by_k.end()) best_k = std::min(best_k, it->second);
    }
    std::printf("planner_vs_best_k%zu %.3f\n", k, planner_k / best_k);
  }

  // Prediction accuracy: run the query log through the Engine API (which
  // fills QueryStats::predicted_micros from the calibrated cost model) and
  // compare prediction to the best-of-3 measured wall time per query.
  Engine engine;  // the zero-config planner path
  std::map<std::size_t, PreparedSet> prepared;
  for (const TermQuery& q : driver.workload().queries()) {
    for (std::size_t term : q) {
      if (!prepared.count(term)) {
        prepared.emplace(term, engine.Prepare(driver.corpus().postings(term)));
      }
    }
  }
  std::size_t within = 0;
  std::size_t total = 0;
  ElemList out;
  for (const TermQuery& q : driver.workload().queries()) {
    std::vector<const PreparedSet*> sets;
    for (std::size_t term : q) sets.push_back(&prepared.at(term));
    fsi::Query query = engine.Query(sets);
    double wall = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      wall = std::min(wall, query.ExecuteInto(&out).wall_micros);
    }
    const double predicted = query.stats().predicted_micros;
    const double ratio = predicted > wall ? predicted / wall : wall / predicted;
    within += (predicted > 0.0 && ratio <= 2.0);
    ++total;
  }
  std::printf("predicted_within_2x %.3f\n",
              static_cast<double>(within) / static_cast<double>(total));
  return 0;
}
