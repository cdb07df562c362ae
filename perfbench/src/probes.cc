// Layer probes of the traced run.  Each times calls into one layer's
// public functions on engines of its own, built with the workload's
// options, over the fixed sample of the log — so no probe warms a cache
// or triggers a compaction that the timed client reads.

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>

#include "bench.h"

namespace perfbench {
namespace {

using PtrList = std::vector<const fsi::PreparedSet*>;

/// Best-of-three wall time of `fn`, in nanoseconds.
template <typename Fn>
double BestOfThreeNs(Fn&& fn) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t t0 = NowNs();
    fn();
    best = std::min(best, static_cast<double>(NowNs() - t0));
  }
  return best;
}

/// The first `n` distinct pool ids of the served order.
std::vector<std::size_t> DistinctServed(const ServeLog& log, std::size_t n) {
  std::vector<std::size_t> ids;
  std::set<std::size_t> seen;
  for (std::size_t id : log.served) {
    if (ids.size() == n) break;
    if (seen.insert(id).second) ids.push_back(id);
  }
  return ids;
}

}  // namespace

std::vector<std::size_t> SlotsOf(const Inputs& in, const std::vector<std::size_t>& sample) {
  std::set<std::size_t> slots;
  for (std::size_t i : sample) slots.insert(in.log[i].begin(), in.log[i].end());
  return {slots.begin(), slots.end()};
}

std::vector<fsi::PreparedSet> PrepareSlots(const fsi::Engine& e, const Inputs& in,
                                           const std::vector<std::size_t>& slots) {
  std::vector<fsi::PreparedSet> sets(in.lists.size());
  for (std::size_t s : slots) sets[s] = e.Prepare(in.lists[s]);
  return sets;
}

std::vector<std::vector<double>> SampleTimes(const std::vector<Arm>& arms, const Inputs& in,
                                             const std::vector<std::size_t>& sample,
                                             Tally* tally) {
  std::vector<std::vector<double>> times(arms.size());
  ElemList out;
  for (std::size_t i : sample) {
    std::vector<PtrList> ptrs(arms.size());
    for (std::size_t a = 0; a < arms.size(); ++a) {
      for (std::size_t s : in.log[i]) ptrs[a].push_back(&(*arms[a].sets)[s]);
      out = arms[a].engine->Query(ptrs[a]).Materialize();  // warm
      tally->Check(out == in.expected[i]);
    }
    std::vector<double> best(arms.size(), 1e300);
    for (int rep = 0; rep < 3; ++rep) {  // interleaved, so drift hits every arm alike
      for (std::size_t a = 0; a < arms.size(); ++a) {
        const std::int64_t t0 = NowNs();
        out = arms[a].engine->Query(ptrs[a]).Materialize();
        best[a] = std::min(best[a], static_cast<double>(NowNs() - t0) * 1e-3);
      }
    }
    for (std::size_t a = 0; a < arms.size(); ++a) times[a].push_back(best[a]);
  }
  return times;
}

void ProbeCalibration(Metrics* m) {
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t t0 = NowNs();
    fsi::PlannerCalibration::Measure();
    ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
  }
  m->Set("prepare.calibration_ms", Median(ms), "ms");
}

void ProbePaper(const Inputs& in, Metrics* m, Tally* tally) {
  // Figure 7's presentation: mean time per query normalized to Merge, and
  // the share of queries each algorithm wins.
  const std::vector<std::string> statics = {"Merge", "SvS", "RanGroupScan", "HashBin", "Hybrid"};
  const std::vector<std::size_t> sample = SampleIndices(in, kSampleSize);
  const std::vector<std::size_t> slots = SlotsOf(in, sample);
  std::vector<fsi::Engine> engines;
  for (const std::string& spec : statics) engines.emplace_back(spec);
  engines.emplace_back("Planner");
  std::vector<std::vector<fsi::PreparedSet>> sets;
  std::vector<Arm> arms;
  for (const fsi::Engine& e : engines) sets.push_back(PrepareSlots(e, in, slots));
  for (std::size_t a = 0; a < engines.size(); ++a) arms.push_back({&engines[a], &sets[a]});
  const std::vector<std::vector<double>> times = SampleTimes(arms, in, sample, tally);
  const std::size_t merge = 0, rgs = 2, planner = statics.size();
  double best_static = 1e300;
  for (std::size_t a = 0; a < statics.size(); ++a) best_static = std::min(best_static, Mean(times[a]));
  std::size_t rgs_wins = 0;
  for (std::size_t q = 0; q < sample.size(); ++q) {
    bool best = true;
    for (std::size_t a = 0; a < statics.size(); ++a) best &= times[rgs][q] <= times[a][q];
    rgs_wins += best ? 1 : 0;
  }
  m->Set("planner.vs_best_static", Mean(times[planner]) / best_static, "ratio");
  m->Set("paper.rgs_vs_merge", Mean(times[rgs]) / Mean(times[merge]), "ratio");
  m->Set("paper.rgs_win_share", static_cast<double>(rgs_wins) / static_cast<double>(sample.size()),
         "ratio");
}

std::vector<int> ProbeCompressed(const Inputs& in, std::size_t budget, Metrics* m, Tally* tally) {
  const std::vector<std::size_t> sample = SampleIndices(in, kSampleSize);
  const std::vector<std::size_t> slots = SlotsOf(in, sample);
  fsi::EngineOptions options;
  options.space_budget_bytes = budget;
  fsi::Engine engine("Planner", options);
  // A budget applies to the whole batch, so a budgeted engine prepares
  // every list; without one the sample's lists are enough.
  std::vector<fsi::PreparedSet> sets =
      budget > 0 ? engine.PrepareBatch(in.lists) : PrepareSlots(engine, in, slots);
  std::vector<int> widths;
  std::size_t compressed = 0;
  for (const fsi::PreparedSet& s : sets) {
    if (s.empty_handle() || !s.compressed()) continue;
    ++compressed;
    const auto* planned = dynamic_cast<const fsi::PlannedSet*>(s.raw());
    widths.push_back(32 - planned->cscan()->t());  // Lowbits: low (32 - t) bits
  }
  std::size_t touching = 0;
  for (const auto& q : in.log) {
    bool any = false;
    for (std::size_t s : q) any |= !sets[s].empty_handle() && sets[s].compressed();
    touching += any ? 1 : 0;
  }
  fsi::Engine plain;
  const std::vector<fsi::PreparedSet> plain_sets = PrepareSlots(plain, in, slots);
  const auto times = SampleTimes({{&engine, &sets}, {&plain, &plain_sets}}, in, sample, tally);
  const double slowdown = Mean(times[0]) / Mean(times[1]);
  m->Set("compressed.set_share", static_cast<double>(compressed) / static_cast<double>(in.lists.size()),
         "ratio");
  m->Set("compressed.query_share", static_cast<double>(touching) / static_cast<double>(in.log.size()),
         "ratio");
  m->Set("compressed.slowdown", slowdown, "ratio");
  if (widths.empty()) {
    // No compressed set here: the widths the compressed form of the
    // sample's lists would use.
    const auto& planner = dynamic_cast<const fsi::PlannerAlgorithm&>(plain.algorithm());
    for (std::size_t s : slots) {
      if (in.lists[s].size() < options.min_compress_size) continue;
      auto set = planner.PreprocessCompressed(in.lists[s]);
      widths.push_back(32 - static_cast<const fsi::PlannedSet&>(*set).cscan()->t());
    }
  }
  return widths;
}

void ProbeSimd(const Inputs& in, const std::vector<int>& decode_widths, Metrics* m) {
  const fsi::simd::Kernels& fast = fsi::simd::DispatchedKernels();
  const fsi::simd::Kernels& scalar = fsi::simd::ScalarKernels();
  double fast_ns = 0, scalar_ns = 0, elems = 0;
  std::vector<std::uint32_t> out;
  for (std::size_t i : SampleIndices(in, kSampleSize)) {
    std::vector<const ElemList*> lists;
    for (std::size_t s : in.log[i]) lists.push_back(&in.lists[s]);
    std::sort(lists.begin(), lists.end(),
              [](const ElemList* a, const ElemList* b) { return a->size() < b->size(); });
    const ElemList& a = *lists[0];
    const ElemList& b = *lists[1];
    auto run = [&](const fsi::simd::Kernels& k) {
      out.clear();
      k.intersect_pair(a.data(), a.size(), b.data(), b.size(), &out);
    };
    fast_ns += BestOfThreeNs([&] { run(fast); });
    scalar_ns += BestOfThreeNs([&] { run(scalar); });
    elems += static_cast<double>(a.size() + b.size());
  }
  m->Set("simd.intersect_ns_per_elem", fast_ns / elems, "ns");
  m->Set("simd.intersect_speedup", scalar_ns / fast_ns, "ratio");

  // Decode: unpack_bits + prefix_sum over 4096 fields at each width the
  // compressed sets use, weighted by how many sets use it.
  const fsi::simd::DecodeKernels& dfast = fsi::simd::DispatchedDecodeKernels();
  const fsi::simd::DecodeKernels& dscalar = fsi::simd::ScalarDecodeKernels();
  constexpr std::size_t kFields = 4096;
  std::map<int, std::size_t> uses;
  for (int w : decode_widths) ++uses[w];
  fsi::Xoshiro256 rng(in.seed ^ 0xdec0de);
  std::vector<std::uint64_t> words(kFields / 2 + 1);
  for (auto& w : words) w = rng.Next();
  std::vector<std::uint32_t> buf(kFields);
  double dfast_ns = 0, dscalar_ns = 0, fields = 0;
  for (const auto& [width, count] : uses) {
    auto run = [&](const fsi::simd::DecodeKernels& k) {
      for (int rep = 0; rep < 16; ++rep) {
        k.unpack_bits(words.data(), words.size(), 0, width, 0, buf.data(), kFields);
        k.prefix_sum(buf.data(), kFields, 0);
      }
    };
    dfast_ns += static_cast<double>(count) * BestOfThreeNs([&] { run(dfast); });
    dscalar_ns += static_cast<double>(count) * BestOfThreeNs([&] { run(dscalar); });
    fields += static_cast<double>(count) * 16.0 * kFields;
  }
  m->Set("simd.decode_ns_per_elem", fields > 0 ? dfast_ns / fields : 0.0, "ns");
  m->Set("simd.decode_speedup", dfast_ns > 0 ? dscalar_ns / dfast_ns : 0.0, "ratio");
}

void ProbeDelta(const Inputs& in, Metrics* m, Tally* tally) {
  // Mutable handles with compaction off, the churn targets filled halfway
  // to their trigger, against immutable sets prepared on a separate engine
  // from the same effective contents.  The reads are log entries that
  // touch a target.
  const std::vector<std::size_t> targets = ChurnTargets(in);
  std::vector<std::size_t> sample;
  for (std::size_t i = 0; i < in.log.size() && sample.size() < kSampleSize; ++i) {
    bool touches = false;
    for (std::size_t s : in.log[i]) touches |= std::count(targets.begin(), targets.end(), s) > 0;
    if (touches) sample.push_back(i);
  }
  const std::vector<std::size_t> slots = SlotsOf(in, sample);
  std::vector<ElemList> effective(in.lists.size());
  fsi::Engine mut_engine;
  fsi::MutableSetOptions no_compaction;
  no_compaction.background_compaction = false;
  std::vector<fsi::PreparedSet> mut(in.lists.size());
  for (std::size_t s : slots) {
    mut[s] = mut_engine.PrepareMutable(in.lists[s], no_compaction);
    effective[s] = in.lists[s];
  }
  const fsi::MutableSetOptions defaults;
  for (std::size_t s : targets) {
    if (mut[s].empty_handle()) continue;
    // Halfway to the compaction trigger of the default options.
    const std::size_t trigger = std::max(
        defaults.compact_min,
        static_cast<std::size_t>(defaults.compact_fill * static_cast<double>(in.lists[s].size())));
    const std::vector<Elem> ids = ChurnIds(in, s, trigger / 2);
    for (Elem id : ids) tally->Check(mut[s].Insert(id));
    effective[s].insert(effective[s].end(), ids.begin(), ids.end());
    std::sort(effective[s].begin(), effective[s].end());
  }
  fsi::Engine imm_engine;
  std::vector<fsi::PreparedSet> imm(in.lists.size());
  for (std::size_t s : slots) imm[s] = imm_engine.Prepare(effective[s]);

  double t[2][2] = {{0, 0}, {0, 0}};  // [mutable?][ordered?]
  ElemList out;
  for (std::size_t i : sample) {
    std::vector<const ElemList*> lists;
    PtrList pm, pi;
    for (std::size_t s : in.log[i]) {
      lists.push_back(&effective[s]);
      pm.push_back(&mut[s]);
      pi.push_back(&imm[s]);
    }
    const ElemList want = OracleAnd(lists);
    for (int is_mut = 0; is_mut < 2; ++is_mut) {
      const fsi::Engine& e = is_mut ? mut_engine : imm_engine;
      const PtrList& p = is_mut ? pm : pi;
      for (int ordered = 0; ordered < 2; ++ordered) {
        auto read = [&] {
          fsi::Query q = e.Query(p);
          if (!ordered) q.Unordered();
          out = q.Materialize();
        };
        read();
        if (!ordered) std::sort(out.begin(), out.end());
        tally->Check(out == want);
        t[is_mut][ordered] += BestOfThreeNs(read);
      }
    }
  }
  m->Set("delta.fixup_ratio_ordered", t[1][1] / t[0][1], "ratio");
  m->Set("delta.fixup_ratio_unordered", t[1][0] / t[0][0], "ratio");
}

void ProbeServe(const Inputs& in, const ServeLog& log, Metrics* m, Tally* tally) {
  // Engine `direct` evaluates each shard's projection on shard_engine(s)
  // from the client thread; engine `served` runs Serve on the same trees.
  // Every shard's ExprCache is cleared before each tree, so both measure
  // the evaluation and no call is a cache hit.
  fsi::ShardedEngine direct(ServeOptions(in));
  fsi::ShardedEngine served(ServeOptions(in));
  std::vector<fsi::ShardedSet> dsets, ssets;
  for (const ElemList& l : in.lists) {
    dsets.push_back(direct.Prepare(l));
    ssets.push_back(served.Prepare(l));
  }
  const std::size_t shards = direct.num_shards();
  auto clear_caches = [&](const fsi::ShardedEngine& e) {
    for (std::size_t s = 0; s < shards; ++s) e.shard_engine(s).expr_cache()->Clear();
  };
  auto serve = [&](std::size_t id) {
    fsi::ShardedExpr se = BuildTree<fsi::ShardedExpr>(
        log.pool[id], [&](std::size_t slot) -> const fsi::ShardedSet& { return ssets[slot]; });
    const std::int64_t t0 = NowNs();
    fsi::ServeResult r = served.Serve(se);
    tally->Check(r.ok() && r.elems == log.expected.at(id));
    return static_cast<double>(NowNs() - t0) * 1e-3;
  };
  std::vector<double> shard_max, imbalance, overhead;
  for (std::size_t id : DistinctServed(log, kSampleSize)) {
    const Tree& tree = log.pool[id];
    clear_caches(direct);
    ElemList gathered;
    double max_ns = 0, sum_ns = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      fsi::Expr e = BuildTree<fsi::Expr>(tree, [&](std::size_t slot) -> const fsi::PreparedSet& {
        return dsets[slot].shard(s);
      });
      const std::int64_t t0 = NowNs();
      ElemList part = direct.shard_engine(s).Query(e).Materialize();
      const double ns = static_cast<double>(NowNs() - t0);
      max_ns = std::max(max_ns, ns);
      sum_ns += ns;
      gathered.insert(gathered.end(), part.begin(), part.end());
    }
    tally->Check(gathered == log.expected.at(id));
    clear_caches(served);
    shard_max.push_back(max_ns * 1e-3);
    imbalance.push_back(sum_ns > 0 ? max_ns / (sum_ns / static_cast<double>(shards)) : 1.0);
    overhead.push_back(serve(id) - max_ns * 1e-3);
  }
  // Medians: each tree runs once per engine, so single slow calls are not
  // averaged in.
  m->Set("serve.shard_max_us", Median(shard_max), "us");
  m->Set("serve.overhead_us", Median(overhead), "us");
  m->Set("serve.shard_imbalance", Median(imbalance), "ratio");
  m->Set("serve.posting_share_max", PostingShareMax(in), "ratio");

  // One whole pass from a cold cache, for the cache counters.
  clear_caches(served);
  std::vector<fsi::ExprCacheStats> before;
  for (std::size_t s = 0; s < shards; ++s) before.push_back(served.shard_engine(s).expr_cache()->stats());
  fsi::ExprCacheStats sum;
  for (std::size_t id : log.served) serve(id);
  for (std::size_t s = 0; s < shards; ++s) {
    const fsi::ExprCacheStats cs = served.shard_engine(s).expr_cache()->stats();
    sum.hits += cs.hits - before[s].hits;
    sum.misses += cs.misses - before[s].misses;
    sum.evictions += cs.evictions - before[s].evictions;
  }
  const double lookups = static_cast<double>(sum.hits + sum.misses);
  m->Set("expr.cache_hit_ratio", lookups > 0 ? static_cast<double>(sum.hits) / lookups : 0.0, "ratio");
  m->Set("expr.cache_evictions", static_cast<double>(sum.evictions), "count");
  m->Set("expr.repeat_share", RepeatShare(log.served), "ratio");
}

void ProbeOptimize(const Inputs& in, const ServeLog& log, Metrics* m) {
  std::vector<Tree> trees;
  for (std::size_t id : DistinctServed(log, kSampleSize)) trees.push_back(log.pool[id]);
  fsi::Engine engine;
  std::set<std::size_t> slots;
  for (const Tree& t : trees) slots.insert(t.slots.begin(), t.slots.end());
  const std::vector<fsi::PreparedSet> sets =
      PrepareSlots(engine, in, std::vector<std::size_t>(slots.begin(), slots.end()));
  double ns = 0;
  for (const Tree& t : trees) {
    fsi::Expr e = BuildTree<fsi::Expr>(t, [&](std::size_t s) -> const fsi::PreparedSet& { return sets[s]; });
    ns += BestOfThreeNs([&] {
      for (int rep = 0; rep < 16; ++rep) {
        fsi::Expr o = fsi::OptimizeExpr(e);
        if (o.empty_handle()) std::abort();
      }
    }) / 16.0;
  }
  m->Set("expr.optimize_us", ns * 1e-3 / static_cast<double>(trees.size()), "us");
}

}  // namespace perfbench
