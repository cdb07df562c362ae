// Shared driver for the simulated real-data experiments (Figures 7 and 12,
// and the compressed real-data table).
//
// Builds the synthetic Bing/Wikipedia stand-in (DESIGN.md §3), pre-processes
// every queried posting list under each algorithm, runs the whole query
// workload in interleaved sweeps (best time per algorithm and query), and
// reports per-algorithm mean times normalized to Merge — exactly the
// presentation of Figure 7.

#ifndef FSI_BENCH_REAL_WORKLOAD_H_
#define FSI_BENCH_REAL_WORKLOAD_H_

#include <algorithm>
#include <cstdio>
#include <limits>
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

  /// Sweeps over the query log per Run().
  static constexpr int kSweeps = 3;

  /// Runs the full workload under each algorithm; fills per-query times.
  /// Every algorithm's structures are built first.  Each of kSweeps
  /// sweeps then runs every query under every algorithm in turn (the
  /// order rotating per query and sweep), and each (algorithm, query)
  /// pair keeps its best time, so one burst of host noise moves single
  /// samples, not a whole algorithm's row.
  std::map<std::string, RealWorkloadResult> Run(
      const std::vector<std::string>& algorithms) const {
    struct Prepared {
      std::unique_ptr<IntersectionAlgorithm> alg;
      // Per query: its terms' structures, in query order.
      std::vector<std::vector<const PreprocessedSet*>> query_sets;
      std::map<std::size_t, std::unique_ptr<PreprocessedSet>> structures;
    };
    const std::vector<TermQuery>& queries = workload_->queries();
    std::vector<Prepared> prepared(algorithms.size());
    for (std::size_t a = 0; a < algorithms.size(); ++a) {
      std::fprintf(stderr, "  preprocessing %s...\n", algorithms[a].c_str());
      Prepared& p = prepared[a];
      p.alg = AlgorithmRegistry::Global().Create(algorithms[a]);
      // Pre-process each distinct queried term once.
      for (const TermQuery& q : queries) {
        std::vector<const PreprocessedSet*> sets;
        for (std::size_t term : q) {
          auto& structure = p.structures[term];
          if (!structure) structure = p.alg->Preprocess(corpus_->postings(term));
          sets.push_back(structure.get());
        }
        p.query_sets.push_back(std::move(sets));
      }
    }
    // Per-query best times per algorithm, for the win-share computation.
    std::map<std::string, std::vector<double>> times;
    for (const std::string& name : algorithms) {
      times[name].assign(queries.size(), std::numeric_limits<double>::max());
    }
    std::fprintf(stderr, "  running %d interleaved sweeps...\n", kSweeps);
    ElemList out;
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        for (std::size_t k = 0; k < algorithms.size(); ++k) {
          const std::size_t a = (k + qi + static_cast<std::size_t>(sweep)) %
                                algorithms.size();
          Timer timer;
          out.clear();
          prepared[a].alg->Intersect(prepared[a].query_sets[qi], &out);
          double& best = times[algorithms[a]][qi];
          best = std::min(best, timer.ElapsedMillis());
        }
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
