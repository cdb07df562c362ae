#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>

namespace perfbench {

namespace {

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
/// Process CPU time (all threads) / the calling thread's CPU time, seconds.
double ProcessCpuSeconds() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }

std::uint64_t Mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(i, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

Inputs MakeInputs(std::uint64_t seed, std::size_t num_queries) {
  Inputs in;
  in.seed = seed;
  fsi::SyntheticCorpus::Options co;
  co.num_docs = 1u << 20;
  co.vocabulary = 10000;
  co.seed = Mix(seed ^ 0xc0ffee);
  fsi::SyntheticCorpus corpus(co);
  in.num_docs = corpus.num_docs();

  // Stratified log: draw 10x the queries, sort them by postings touched,
  // keep every 10th from a seeded offset, then order them in rounds that
  // take one query from each of 100 cost strata.  Every seed then replays
  // the same cost mix, and any prefix of whole rounds is balanced, so a
  // run that ends mid-pass still measures the log's mix.
  constexpr std::size_t kOversample = 10;
  fsi::QueryWorkload::Options qo;
  qo.num_queries = num_queries * kOversample;
  qo.seed = Mix(seed ^ 0x10ca1);
  const fsi::QueryWorkload drawn(corpus, qo);
  std::vector<std::pair<std::size_t, std::size_t>> by_cost;  // (postings, index)
  for (std::size_t i = 0; i < drawn.queries().size(); ++i) {
    std::size_t postings = 0;
    for (std::size_t term : drawn.queries()[i]) postings += corpus.postings(term).size();
    by_cost.push_back({postings, i});
  }
  std::sort(by_cost.begin(), by_cost.end());
  fsi::Xoshiro256 rng(Mix(seed ^ 0x0dd));
  std::vector<std::size_t> kept;
  for (std::size_t i = rng.Next() % kOversample; i < by_cost.size(); i += kOversample) {
    kept.push_back(by_cost[i].second);
  }
  kept.resize(num_queries);
  const std::size_t per_stratum = num_queries / kStrata;
  std::vector<std::vector<std::size_t>> strata(kStrata);
  for (std::size_t i = 0; i < kept.size(); ++i) strata[std::min(i / per_stratum, kStrata - 1)].push_back(kept[i]);
  auto shuffle = [&rng](auto& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.Next() % i]);
  };
  for (auto& s : strata) shuffle(s);
  std::vector<fsi::TermQuery> queries;
  for (std::size_t round = 0; queries.size() < num_queries; ++round) {
    std::vector<std::size_t> order(kStrata);
    for (std::size_t s = 0; s < kStrata; ++s) order[s] = s;
    shuffle(order);
    for (std::size_t s : order) {
      if (round >= strata[s].size()) continue;
      queries.push_back(drawn.queries()[strata[s][round]]);
      in.stratum.push_back(s);
    }
  }

  std::set<std::size_t> terms;
  for (const fsi::TermQuery& q : queries) terms.insert(q.begin(), q.end());
  std::map<std::size_t, std::size_t> slot_of;
  for (std::size_t term : terms) {  // ascending term = descending df
    slot_of[term] = in.lists.size();
    in.lists.push_back(corpus.postings(term));
  }
  std::size_t by_k[4] = {0, 0, 0, 0};
  for (const fsi::TermQuery& q : queries) {
    std::vector<std::size_t> slots;
    for (std::size_t term : q) slots.push_back(slot_of.at(term));
    in.log.push_back(std::move(slots));
    if (q.size() >= 2 && q.size() <= 5) ++by_k[q.size() - 2];
  }
  for (int k = 0; k < 4; ++k) {
    in.k_share[k] = static_cast<double>(by_k[k]) / static_cast<double>(in.log.size());
  }
  for (const auto& q : in.log) {
    std::vector<const ElemList*> lists;
    for (std::size_t s : q) lists.push_back(&in.lists[s]);
    in.expected.push_back(OracleAnd(lists));
  }
  return in;
}

std::vector<std::size_t> SampleIndices(const Inputs& in, std::size_t n) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < std::min(n, in.log.size()); ++i) out.push_back(i);
  return out;
}

std::uint64_t SetHash(const ElemList& elems) {
  std::uint64_t h = 0;
  for (Elem e : elems) h += Mix(e);
  return h;
}

double PostingShareMax(const Inputs& in) {
  const fsi::ShardMap map(4, static_cast<Elem>(in.num_docs));
  std::vector<double> per_shard(map.num_shards(), 0.0);
  double total = 0;
  for (const ElemList& l : in.lists) {
    for (Elem e : l) per_shard[map.shard_of(e)] += 1.0;
    total += static_cast<double>(l.size());
  }
  return *std::max_element(per_shard.begin(), per_shard.end()) / total;
}

template <typename T>
double RepeatShare(const std::vector<T>& entries) {
  std::set<T> seen;
  std::size_t repeats = 0;
  for (const T& e : entries) repeats += seen.insert(e).second ? 0 : 1;
  return entries.empty() ? 0.0
                         : static_cast<double>(repeats) / static_cast<double>(entries.size());
}
template double RepeatShare(const std::vector<std::vector<std::size_t>>&);
template double RepeatShare(const std::vector<std::size_t>&);

ElemList OracleAnd(const std::vector<const ElemList*>& lists) {
  if (lists.empty()) return {};
  std::vector<const ElemList*> order = lists;
  std::sort(order.begin(), order.end(),
            [](const ElemList* a, const ElemList* b) { return a->size() < b->size(); });
  ElemList acc = *order[0];
  for (std::size_t i = 1; i < order.size(); ++i) {
    ElemList next;
    std::set_intersection(acc.begin(), acc.end(), order[i]->begin(), order[i]->end(),
                          std::back_inserter(next));
    acc.swap(next);
  }
  return acc;
}

ElemList OracleTree(const Tree& tree, const std::vector<ElemList>& lists) {
  std::vector<const ElemList*> leaves;
  for (std::size_t s : tree.slots) leaves.push_back(&lists[s]);
  switch (tree.kind) {
    case fsi::ExprKind::kOr: {
      ElemList acc;
      for (const ElemList* l : leaves) {
        ElemList next;
        std::set_union(acc.begin(), acc.end(), l->begin(), l->end(), std::back_inserter(next));
        acc.swap(next);
      }
      return acc;
    }
    case fsi::ExprKind::kDiff: {
      const ElemList* exclude = leaves.back();
      leaves.pop_back();
      ElemList include = OracleAnd(leaves), out;
      std::set_difference(include.begin(), include.end(), exclude->begin(), exclude->end(),
                          std::back_inserter(out));
      return out;
    }
    case fsi::ExprKind::kAtLeast: {
      // Multiplicity counts: merge the k lists, keep ids seen >= t times.
      ElemList all;
      for (const ElemList* l : leaves) all.insert(all.end(), l->begin(), l->end());
      std::sort(all.begin(), all.end());
      ElemList out;
      for (std::size_t i = 0; i < all.size();) {
        std::size_t j = i;
        while (j < all.size() && all[j] == all[i]) ++j;
        if (j - i >= tree.threshold) out.push_back(all[i]);
        i = j;
      }
      return out;
    }
    default:
      return OracleAnd(leaves);
  }
}

std::vector<std::size_t> ChurnTargets(const Inputs& in) {
  std::vector<std::size_t> freq(in.lists.size(), 0);
  for (const auto& q : in.log) {
    for (std::size_t s : q) ++freq[s];
  }
  std::vector<std::size_t> candidates;
  for (std::size_t s = 0; s < in.lists.size(); ++s) {
    if (in.lists[s].size() >= 8192 && in.lists[s].size() <= 24576) candidates.push_back(s);
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](std::size_t a, std::size_t b) { return freq[a] > freq[b]; });
  if (candidates.size() > kChurnTargets) candidates.resize(kChurnTargets);
  if (candidates.empty()) throw std::runtime_error("churn: no list of 8k..24k postings");
  return candidates;
}

std::vector<Elem> ChurnIds(const Inputs& in, std::size_t slot, std::size_t count) {
  const ElemList& list = in.lists[slot];
  const std::size_t want = std::min(count, in.num_docs - list.size());
  fsi::Xoshiro256 rng(Mix(in.seed ^ (0x5107 + slot)));
  std::set<Elem> picked;
  while (picked.size() < want) {
    const Elem e = static_cast<Elem>(rng.Next() % in.num_docs);
    if (!std::binary_search(list.begin(), list.end(), e)) picked.insert(e);
  }
  std::vector<Elem> ids(picked.begin(), picked.end());
  for (std::size_t i = ids.size(); i > 1; --i) {  // random write order
    std::swap(ids[i - 1], ids[rng.Next() % i]);
  }
  return ids;
}

// ------------------------------------------------------------- tracing

const char* SpanNameString(SpanName name) {
  static const char* const kNames[kSpanCount] = {
      "query", "planner.build", "intersect.terminal", "write", "prepare", "load"};
  return kNames[name];
}

void Trace::SelfTimes(double self_ns[kSpanCount], std::size_t count[kSpanCount]) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != UINT32_MAX) child[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
  }
  for (int n = 0; n < kSpanCount; ++n) {
    self_ns[n] = 0;
    count[n] = 0;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self_ns[s.name] += static_cast<double>(s.end_ns - s.start_ns) - child[i];
    ++count[s.name];
  }
}

bool Trace::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,start_ns,end_ns,parent,query\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%lld,%lld,%lld,%llu\n", SpanNameString(s.name),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 s.parent == UINT32_MAX ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.query));
  }
  return std::fclose(f) == 0;
}

// --------------------------------------------------------------- phase

Phase::Phase(std::size_t entries) {
  constexpr double kNone = std::numeric_limits<double>::infinity();
  best_.assign(entries, {kNone, kNone, kNone});
}

void Phase::Resume(double seconds) {
  process_cpu0_ = ProcessCpuSeconds();
  thread_cpu0_ = last_cpu_ = ThreadCpuSeconds();
  start_ = last_ = NowNs();
  end_ = start_ + static_cast<std::int64_t>(seconds * 1e9);
}

bool Phase::Add(std::size_t entry, double query_us) {
  const std::int64_t now = NowNs();
  const double cpu = ThreadCpuSeconds();
  Best& b = best_[entry];
  b.query_us = std::min(b.query_us, query_us);
  b.cycle_us = std::min(b.cycle_us, static_cast<double>(now - last_) * 1e-3);
  b.cycle_cpu_us = std::min(b.cycle_cpu_us, (cpu - last_cpu_) * 1e6);
  ++queries_;
  last_ = now;
  last_cpu_ = cpu;
  if (now < end_) return true;
  wall_s_ += static_cast<double>(now - start_) * 1e-9;
  thread_cpu_s_ += cpu - thread_cpu0_;
  process_cpu_s_ += ProcessCpuSeconds() - process_cpu0_;
  return false;
}

namespace {

/// One field of the entries read at least once.
template <typename Fn>
std::vector<double> Field(const std::vector<Phase::Best>& best, Fn&& fn) {
  std::vector<double> out;
  for (const Phase::Best& b : best) {
    if (std::isfinite(b.query_us)) out.push_back(fn(b));
  }
  return out;
}

double Sum(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return sum;
}

}  // namespace

std::size_t Phase::entries() const {
  return Field(best_, [](const Best& b) { return b.query_us; }).size();
}

double Phase::P50() const {
  return Percentile(Field(best_, [](const Best& b) { return b.query_us; }), 0.5);
}

double Phase::P99() const {
  return Percentile(Field(best_, [](const Best& b) { return b.query_us; }), 0.99);
}

double Phase::Qps() const {
  const std::vector<double> cycles = Field(best_, [](const Best& b) { return b.cycle_us; });
  return static_cast<double>(cycles.size()) / (Sum(cycles) * 1e-6);
}

double Phase::CpuPerQueryUs() const {
  const double background_s = std::max(0.0, process_cpu_s_ - thread_cpu_s_);
  return Mean(Field(best_, [](const Best& b) { return b.cycle_cpu_us; })) +
         background_s * 1e6 / static_cast<double>(queries_);
}

double Phase::RawQps() const { return static_cast<double>(queries_) / wall_s_; }

double Phase::RawCpuPerQueryUs() const {
  return process_cpu_s_ * 1e6 / static_cast<double>(queries_);
}

// ------------------------------------------------------------- metrics

void StatsAcc::Add(const fsi::QueryStats& st) {
  scanned += static_cast<double>(st.elements_scanned);
  results += static_cast<double>(st.result_size);
  groups += static_cast<double>(st.groups_probed);
  ++queries;
  const double lo = std::min(st.predicted_micros, st.wall_micros);
  const double hi = std::max(st.predicted_micros, st.wall_micros);
  within_2x += (lo > 0 && hi <= 2.0 * lo) ? 1 : 0;
}

void StatsAcc::Report(Metrics* m) const {
  const double n = std::max<double>(1.0, static_cast<double>(queries));
  m->Set("planner.predicted_within_2x", static_cast<double>(within_2x) / n, "ratio");
  m->Set("intersect.scanned_per_result", scanned / std::max(1.0, results), "ratio");
  m->Set("intersect.groups_probed", groups / n, "count");
}

}  // namespace perfbench
