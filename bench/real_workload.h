// Shared driver for the simulated real-data experiments (Figures 7 and 12,
// and the compressed real-data table).
//
// Builds the synthetic Bing/Wikipedia stand-in (DESIGN.md §3), pre-processes
// every queried posting list under each algorithm, runs the whole query
// workload, and reports per-algorithm mean times normalized to Merge —
// exactly the presentation of Figure 7.

#ifndef FSI_BENCH_REAL_WORKLOAD_H_
#define FSI_BENCH_REAL_WORKLOAD_H_

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "util/stats.h"
#include "util/timer.h"
#include "workload/corpus.h"

namespace fsi::bench {

struct RealWorkloadResult {
  // Mean per-query milliseconds, overall and by keyword count (2..5).
  double mean_ms = 0;
  std::map<std::size_t, double> mean_ms_by_k;
  double worst_ms = 0;
  double best_share = 0;  // fraction of queries where this algorithm won
};

class RealWorkloadDriver {
 public:
  RealWorkloadDriver() {
    // The corpus must be large enough that posting lists outgrow the CPU
    // caches — the regime of the paper's 8M-page Wikipedia corpus, and the
    // regime where Hash's random probes and SkipList's pointer chasing
    // fall behind (Section 4).
    SyntheticCorpus::Options co;
    co.num_docs = FullScale() ? (8u << 20) : (1u << 20);
    co.vocabulary = FullScale() ? 50000 : 10000;
    corpus_ = std::make_unique<SyntheticCorpus>(co);
    QueryWorkload::Options qo;
    qo.num_queries = FullScale() ? 10000 : 1000;
    workload_ = std::make_unique<QueryWorkload>(*corpus_, qo);
  }

  const SyntheticCorpus& corpus() const { return *corpus_; }
  const QueryWorkload& workload() const { return *workload_; }

  void PrintWorkloadStats() const {
    auto st = workload_->ComputeStats(*corpus_);
    std::printf(
        "workload stats (paper targets in parentheses):\n"
        "  2-kw %.2f (0.68)  3-kw %.2f (0.23)  4-kw %.2f (0.06)  5-kw %.2f "
        "(0.03)\n"
        "  mean |L1|/|L2| %.2f (~0.21-0.36)  mean |L1|/|Lk| %.2f "
        "(~0.06-0.09)\n"
        "  mean r/|L1| %.2f (0.19)\n\n",
        st.frac2, st.frac3, st.frac4, st.frac5, st.mean_ratio_12,
        st.mean_ratio_1k, st.mean_selectivity);
  }

  /// Runs the full workload under each algorithm; fills per-query times.
  std::map<std::string, RealWorkloadResult> Run(
      const std::vector<std::string>& algorithms) const {
    // Per-query times per algorithm, for the win-share computation.
    std::map<std::string, std::vector<double>> times;
    for (const std::string& name : algorithms) {
      std::fprintf(stderr, "  preprocessing + running %s...\n", name.c_str());
      auto alg = AlgorithmRegistry::Global().Create(name);
      // Pre-process each distinct queried term once.
      std::map<std::size_t, std::unique_ptr<PreprocessedSet>> structures;
      for (const TermQuery& q : workload_->queries()) {
        for (std::size_t term : q) {
          if (!structures.count(term)) {
            structures[term] = alg->Preprocess(corpus_->postings(term));
          }
        }
      }
      std::vector<double>& per_query = times[name];
      per_query.reserve(workload_->queries().size());
      ElemList out;
      for (const TermQuery& q : workload_->queries()) {
        std::vector<const PreprocessedSet*> sets;
        for (std::size_t term : q) sets.push_back(structures[term].get());
        Timer timer;
        out.clear();
        alg->Intersect(sets, &out);
        per_query.push_back(timer.ElapsedMillis());
      }
    }
    // Aggregate.
    std::map<std::string, RealWorkloadResult> results;
    std::size_t nq = workload_->queries().size();
    for (const std::string& name : algorithms) {
      RealWorkloadResult& r = results[name];
      const auto& pq = times[name];
      std::map<std::size_t, SampleStats> by_k;
      SampleStats all;
      for (std::size_t i = 0; i < nq; ++i) {
        all.Add(pq[i]);
        by_k[workload_->queries()[i].size()].Add(pq[i]);
      }
      r.mean_ms = all.Mean();
      r.worst_ms = all.Max();
      for (auto& [k, st] : by_k) r.mean_ms_by_k[k] = st.Mean();
      std::size_t wins = 0;
      for (std::size_t i = 0; i < nq; ++i) {
        bool best = true;
        for (const std::string& other : algorithms) {
          if (times[other][i] < pq[i]) {
            best = false;
            break;
          }
        }
        wins += best;
      }
      r.best_share = static_cast<double>(wins) / static_cast<double>(nq);
    }
    return results;
  }

 private:
  std::unique_ptr<SyntheticCorpus> corpus_;
  std::unique_ptr<QueryWorkload> workload_;
};

}  // namespace fsi::bench

#endif  // FSI_BENCH_REAL_WORKLOAD_H_
