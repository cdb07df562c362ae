// The three workloads.  Each owns one engine configuration over the shared
// inputs and replays the log in passes with a single closed-loop client.
//
//   bing_and         planner Engine, immutable uncompressed sets, ordered
//                    Materialize — the paper's Figure 7 experiment.
//   bing_compressed  the same with space_budget_bytes set to the bytes that
//                    compressing the longest 30% of the lists would save;
//                    PrepareBatch picks the sets to compress.
//   bing_churn       PrepareMutable sets, background compaction on, a fixed
//                    number of Insert/Erase calls before every read; reads
//                    alternate ordered and Unordered().
//
// The serving layers (ShardedEngine, Expr trees, ExprCache) are measured
// by the traced run's serving probe (probes.cc) over MakeServeLog's mix.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>
#include <optional>

#include "bench.h"

namespace perfbench {
namespace {

using PtrList = std::vector<const fsi::PreparedSet*>;

std::uint64_t Fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Folds one plan's step algorithms and expression rendering into `h`.
std::uint64_t HashPlan(std::uint64_t h, const fsi::QueryPlan& plan) {
  for (const fsi::PlanStep& step : plan.steps) {
    h = Fnv1a(h, step.algorithm.data(), step.algorithm.size());
    h = Fnv1a(h, "|", 1);
  }
  h = Fnv1a(h, plan.tree.data(), plan.tree.size());
  return Fnv1a(h, "\n", 1);
}

double BytesOf(const std::vector<fsi::PreparedSet>& sets) {
  double words = 0, postings = 0;
  for (const fsi::PreparedSet& s : sets) {
    words += static_cast<double>(s.SizeInWords());
    postings += static_cast<double>(s.size());
  }
  return words * 8.0 / postings;
}


/// The planner-engine workloads whose sets never change: bing_and and,
/// with a space budget, bing_compressed.  bing_churn derives from it.
class EngineWorkload : public Workload {
 public:
  explicit EngineWorkload(const Inputs& in) : in_(in) {}

  double Restart(const std::string& path, Trace* trace, Tally* tally) override {
    if (!saved_) {
      engine_->SaveSnapshot(path, sets_);
      saved_ = true;
    }
    const std::int64_t t0 = NowNs();
    std::optional<fsi::LoadedSnapshot> loaded;
    {
      SpanScope span(trace, kSpanLoad, 0);
      loaded.emplace(fsi::Engine::LoadSnapshot(path));
    }
    const double seconds = static_cast<double>(NowNs() - t0) * 1e-9;
    info_ = loaded->info;
    for (std::size_t i = 0; i < 8 && i < in_.log.size(); ++i) {
      PtrList ptrs;
      for (std::size_t s : in_.log[i]) ptrs.push_back(&loaded->sets[s]);
      tally->Check(loaded->engine.Query(ptrs).Materialize() == in_.expected[i]);
    }
    return seconds;
  }
  fsi::SnapshotInfo LoadInfo() const override { return info_; }
  double BytesPerPosting() const override { return BytesOf(sets_); }

  std::uint64_t PlanFingerprint() const override {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const PtrList& p : ptrs_) h = HashPlan(h, engine_->Query(p).Explain());
    return h;
  }

  void Probe(Metrics* m) const override {
    stats_.Report(m);
    m->Set("delta.fill_at_read", fill_n_ > 0 ? fill_sum_ / static_cast<double>(fill_n_) : 0.0, "ratio");
    m->Set("compaction.cycles", static_cast<double>(compactions_), "count");
  }

  std::string RecordFields() const override {
    std::size_t compressed = 0, touching = 0;
    for (const fsi::PreparedSet& set : sets_) compressed += set.compressed() ? 1 : 0;
    for (const auto& q : in_.log) {
      bool any = false;
      for (std::size_t s : q) any |= sets_[s].compressed();
      touching += any ? 1 : 0;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"log.repeat_share\": %.6f, \"compressed.set_share\": %.6f, "
                  "\"compressed.query_share\": %.6f, \"delta.fill_at_read\": %.6f",
                  RepeatShare(in_.log), static_cast<double>(compressed) / static_cast<double>(sets_.size()),
                  static_cast<double>(touching) / static_cast<double>(in_.log.size()),
                  fill_n_ > 0 ? fill_sum_ / static_cast<double>(fill_n_) : 0.0);
    return buf;
  }

 protected:
  /// One read of log entry `i` into `out`.
  void Read(std::size_t i, bool ordered, Trace* trace, std::uint64_t qid, ElemList* out) {
    std::optional<fsi::Query> q;
    {
      SpanScope span(trace, kSpanPlan, qid);
      q.emplace(engine_->Query(ptrs_[i]));
    }
    if (!ordered) q->Unordered();
    {
      SpanScope span(trace, kSpanTerminal, qid);
      *out = q->Materialize();
    }
    if (trace != nullptr) stats_.Add(q->stats());
  }

  void SetPtrs() {
    ptrs_.clear();
    for (const auto& q : in_.log) {
      PtrList p;
      for (std::size_t s : q) p.push_back(&sets_[s]);
      ptrs_.push_back(std::move(p));
    }
  }

  const Inputs& in_;
  std::optional<fsi::Engine> engine_;
  std::vector<fsi::PreparedSet> sets_;
  std::vector<PtrList> ptrs_;
  std::uint64_t cursor_ = 0;  // reads issued, across phases
  bool saved_ = false;
  fsi::SnapshotInfo info_;
  StatsAcc stats_;
  double fill_sum_ = 0;
  std::size_t fill_n_ = 0;
  std::uint64_t compactions_ = 0;
};

class FlatWorkload : public EngineWorkload {
 public:
  FlatWorkload(const Inputs& in, bool compressed) : EngineWorkload(in) {
    if (!compressed) return;
    // Budget from the uncompressed footprint: compressing a set keeps
    // roughly a quarter of its bytes, so ask for the bytes that turning
    // the longest 30% of the lists (slot order) compressed would save.
    fsi::Engine plain;
    double total = 0, longest = 0;
    const std::size_t n_long = (in.lists.size() * 3 + 9) / 10;
    for (std::size_t s = 0; s < in.lists.size(); ++s) {
      const double bytes = static_cast<double>(plain.Prepare(in.lists[s]).SizeInWords()) * 8.0;
      total += bytes;
      if (s < n_long) longest += bytes;
    }
    budget_ = static_cast<std::size_t>(total - 0.75 * longest);
  }

  std::size_t budget() const override { return budget_; }

  double Setup(Trace* trace) override {
    ptrs_.clear();
    sets_.clear();
    engine_.reset();
    const std::int64_t t0 = NowNs();
    fsi::EngineOptions options;
    options.space_budget_bytes = budget_;
    engine_.emplace("Planner", options);
    {
      SpanScope span(trace, kSpanPrepare, 0);
      if (budget_ > 0) {
        sets_ = engine_->PrepareBatch(in_.lists);
      } else {
        sets_.reserve(in_.lists.size());
        for (const ElemList& l : in_.lists) sets_.push_back(engine_->Prepare(l));
      }
    }
    const double seconds = static_cast<double>(NowNs() - t0) * 1e-9;
    SetPtrs();
    return seconds;
  }

  void Run(double seconds, Trace* trace, Tally* tally, Phase* ph) override {
    ElemList out;
    ph->Resume(seconds);
    for (bool more = true; more;) {
      const std::uint64_t qid = cursor_++;
      const std::size_t i = qid % in_.log.size();
      const std::int64_t t0 = NowNs();
      bool ok = true;
      try {
        SpanScope root(trace, kSpanQuery, qid);
        Read(i, true, trace, qid, &out);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "query %zu: %s\n", i, e.what());
        ok = false;
      }
      const double query_us = static_cast<double>(NowNs() - t0) * 1e-3;
      tally->Check(ok && out == in_.expected[i]);
      more = ph->Add(i, query_us);
    }
  }

 private:
  std::size_t budget_ = 0;
};

/// bing_churn.  Writes go to up to four head terms (ChurnTargets): one
/// pass of the log inserts each target's churn ids, the next pass erases
/// them in the same order, so the effective contents return to the base
/// every two passes.  The targets take turns in blocks of reads (see
/// kChurnBlockReads): a rebuild scheduled during a target's block may lose
/// to the block's later writes, but the one pending when the block ends
/// publishes while the target is quiet, so every crossing of a target's
/// compaction trigger ends in one published compaction.  The oracle for
/// every read of both passes comes from a sorted-vector model of the
/// targets, computed before timing.
class ChurnWorkload : public EngineWorkload {
 public:
  explicit ChurnWorkload(const Inputs& in) : EngineWorkload(in) {
    targets_ = ChurnTargets(in);
    const std::size_t n = in.log.size(), nt = targets_.size();
    const std::size_t blocks = (n + kChurnBlockReads - 1) / kChurnBlockReads;
    const std::size_t per_target = (blocks + nt - 1) / nt * kChurnBlockReads * kChurnWritesPerRead;
    std::vector<std::vector<Elem>> ids;
    for (std::size_t s : targets_) ids.push_back(ChurnIds(in, s, per_target));
    std::vector<std::size_t> next(nt, 0);
    for (std::size_t i = 0; i < n; ++i) {  // the targets take turns by block
      const std::size_t t = i / kChurnBlockReads % nt;
      for (std::size_t k = 0; k < kChurnWritesPerRead; ++k) writes_.push_back({t, ids[t][next[t]++]});
    }

    std::vector<ElemList> model;
    std::vector<int> target_of(in.lists.size(), -1);
    for (std::size_t t = 0; t < targets_.size(); ++t) {
      model.push_back(in.lists[targets_[t]]);
      target_of[targets_[t]] = static_cast<int>(t);
    }
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < in.log.size(); ++i) {
        for (std::size_t j = i * kChurnWritesPerRead; j < (i + 1) * kChurnWritesPerRead && j < writes_.size(); ++j) {
          ElemList& l = model[writes_[j].first];
          auto it = std::lower_bound(l.begin(), l.end(), writes_[j].second);
          if (pass == 0) {
            l.insert(it, writes_[j].second);
          } else {
            l.erase(it);
          }
        }
        std::vector<const ElemList*> lists;
        bool touched = false;
        for (std::size_t s : in.log[i]) {
          touched |= target_of[s] >= 0;
          lists.push_back(target_of[s] >= 0 ? &model[target_of[s]] : &in.lists[s]);
        }
        if (touched) override_[pass][i] = OracleAnd(lists);
      }
    }
  }

  ~ChurnWorkload() override {
    for (const fsi::PreparedSet& s : sets_) s.WaitForCompaction();
  }

  double Setup(Trace* trace) override {
    for (const fsi::PreparedSet& s : sets_) s.WaitForCompaction();
    ptrs_.clear();
    sets_.clear();
    engine_.reset();
    const std::int64_t t0 = NowNs();
    engine_.emplace("Planner");
    {
      SpanScope span(trace, kSpanPrepare, 0);
      sets_.reserve(in_.lists.size());
      for (const ElemList& l : in_.lists) sets_.push_back(engine_->PrepareMutable(l));
    }
    const double seconds = static_cast<double>(NowNs() - t0) * 1e-9;
    SetPtrs();
    return seconds;
  }

  void Run(double seconds, Trace* trace, Tally* tally, Phase* ph) override {
    ElemList out;
    std::uint64_t version0 = 0, mutations = 0;
    for (std::size_t s : targets_) version0 += sets_[s].version();
    ph->Resume(seconds);
    for (bool more = true; more;) {
      const std::uint64_t qid = cursor_++;
      const std::size_t n = in_.log.size();
      const std::size_t i = qid % n;
      const bool erase = (qid / n) % 2 == 1;
      for (std::size_t j = i * kChurnWritesPerRead; j < (i + 1) * kChurnWritesPerRead && j < writes_.size(); ++j) {
        fsi::PreparedSet& set = sets_[targets_[writes_[j].first]];
        const std::int64_t t0 = NowNs();
        bool ok = false;
        {
          SpanScope span(trace, kSpanWrite, qid);
          ok = erase ? set.Erase(writes_[j].second) : set.Insert(writes_[j].second);
        }
        ph->write_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
        tally->Check(ok);
        mutations += ok ? 1 : 0;
      }
      const bool ordered = qid % 2 == 0;
      const std::int64_t t0 = NowNs();
      bool ok = true;
      try {
        SpanScope root(trace, kSpanQuery, qid);
        Read(i, ordered, trace, qid, &out);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "query %zu: %s\n", i, e.what());
        ok = false;
      }
      const double query_us = static_cast<double>(NowNs() - t0) * 1e-3;
      const auto& over = override_[erase ? 1 : 0];
      auto it = over.find(i);
      const ElemList& want = it != over.end() ? it->second : in_.expected[i];
      // Unordered results are checked as sets (size plus an order-free
      // hash), which costs the client loop O(r) instead of a sort.
      tally->Check(ok && (ordered ? out == want
                                  : out.size() == want.size() && SetHash(out) == SetHash(want)));
      if (trace != nullptr) {
        double fill = 0;
        for (const fsi::PreparedSet* p : ptrs_[i]) {
          fill += static_cast<double>(p->delta_size()) / static_cast<double>(std::max<std::size_t>(1, p->size()));
        }
        fill_sum_ += fill / static_cast<double>(ptrs_[i].size());
        ++fill_n_;
      }
      more = ph->Add(i, query_us);
    }
    // Every successful mutation and every published compaction bumps a
    // set's version; the difference counts compactions in this phase.
    std::uint64_t version1 = 0;
    for (std::size_t s : targets_) version1 += sets_[s].version();
    if (trace != nullptr) compactions_ += version1 - version0 - mutations;
  }

  std::string RecordFields() const override {
    std::string out = EngineWorkload::RecordFields();
    char buf[96];
    std::snprintf(buf, sizeof(buf), ", \"churn.targets\": %zu, \"churn.writes_per_read\": %zu",
                  targets_.size(), kChurnWritesPerRead);
    return out + buf;
  }

 private:
  std::vector<std::size_t> targets_;
  std::vector<std::pair<std::size_t, Elem>> writes_;  // (target, id), one pass
  std::map<std::size_t, ElemList> override_[2];  // oracle of reads touching a target
};

}  // namespace

ServeLog MakeServeLog(const Inputs& in) {
  constexpr std::size_t kHot = kStrata;
  ServeLog log;
  for (std::size_t i = 0; i < in.log.size(); ++i) {
    const std::vector<std::size_t>& q = in.log[i];
    Tree t{fsi::ExprKind::kAnd, q, 0};
    const std::size_t shape = (i / kStrata + in.stratum[i]) % 10;
    if (shape == 7) {
      t = {fsi::ExprKind::kOr, {q[0], q[1]}, 0};
    } else if (shape == 8) {
      t.kind = fsi::ExprKind::kDiff;
    } else if (shape == 9) {
      t = {fsi::ExprKind::kAtLeast, q, std::max<std::size_t>(1, q.size() - 1)};
    }
    log.pool.push_back(std::move(t));
  }
  for (std::size_t i = 0; i < in.log.size(); ++i) {
    log.served.push_back(i);
    log.served.push_back(i % kHot);
  }
  for (std::size_t id : log.served) {
    if (!log.expected.count(id)) log.expected[id] = OracleTree(log.pool[id], in.lists);
  }
  return log;
}

fsi::ShardedEngineOptions ServeOptions(const Inputs& in) {
  fsi::ShardedEngineOptions options;
  options.num_shards = 4;
  options.universe_bound = static_cast<Elem>(in.num_docs);
  options.num_threads = 1;
  return options;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, const Inputs& in) {
  if (name == "bing_and") return std::make_unique<FlatWorkload>(in, false);
  if (name == "bing_compressed") return std::make_unique<FlatWorkload>(in, true);
  if (name == "bing_churn") return std::make_unique<ChurnWorkload>(in);
  return nullptr;
}

}  // namespace perfbench
