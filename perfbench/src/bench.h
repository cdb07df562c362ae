// Shared pieces of the end-to-end benchmark: inputs and oracle, the span
// recorder of the traced run, latency statistics and the metric sink.
//
// The benchmark drives only the library's public surfaces (Engine,
// PreparedSet, Query, Expr, ShardedEngine, snapshots, SIMD kernel tables).
// Everything here runs on one client thread; the library's own scatter
// pool and compaction worker are the only other threads doing work.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fsi.h"
#include "workload/corpus.h"

namespace perfbench {

using fsi::Elem;
using fsi::ElemList;

// ---------------------------------------------------------------- clock

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `values` (copied; empty -> 0).
double Median(std::vector<double> values);
/// Nearest-rank percentile `p` in [0, 1] of `values` (copied; empty -> 0).
double Percentile(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);

// --------------------------------------------------------------- inputs

/// Boolean expression over list slots — the oracle's and the serving
/// probe's shared tree description, turned into fsi::Expr or
/// fsi::ShardedExpr per engine.
struct Tree {
  fsi::ExprKind kind = fsi::ExprKind::kAnd;  // kAnd, kOr, kDiff, kAtLeast
  std::vector<std::size_t> slots;            // leaves, in order
  std::size_t threshold = 0;                 // kAtLeast only
  // kDiff: And(slots[0..n-2]) \ slots[n-1].
};

/// The fig07 stand-in drawn from one seed: a SyntheticCorpus (1 Mi docs,
/// 10k terms) and a QueryWorkload log (k = 2..5 in shares 68/23/6/3%).
/// Only the queried posting lists are kept, one "slot" per distinct term,
/// slot 0 being the longest list.
struct Inputs {
  std::uint64_t seed = 0;
  std::size_t num_docs = 0;
  std::vector<ElemList> lists;                   // by slot
  std::vector<std::vector<std::size_t>> log;     // queries as slots
  std::vector<std::size_t> stratum;              // cost stratum per entry
  std::vector<ElemList> expected;                // oracle, per log entry
  double k_share[4] = {0, 0, 0, 0};              // k = 2, 3, 4, 5
};

/// Cost strata of the log; `num_queries` must be a multiple of it, so the
/// log is whole rounds of one query per stratum.
constexpr std::size_t kStrata = 100;

Inputs MakeInputs(std::uint64_t seed, std::size_t num_queries);

/// First `n` log entries: the fixed sample the traced run's side
/// comparisons use.
std::vector<std::size_t> SampleIndices(const Inputs& in, std::size_t n);

/// Order-independent hash of a set's elements.
std::uint64_t SetHash(const ElemList& elems);

/// Largest share of the lists' postings that one of 4 shards holds.
double PostingShareMax(const Inputs& in);

/// Share of entries equal to an earlier entry.
template <typename T>
double RepeatShare(const std::vector<T>& entries);

// Oracle: std::set_* composition over the raw sorted lists.
ElemList OracleAnd(const std::vector<const ElemList*>& lists);
ElemList OracleTree(const Tree& tree, const std::vector<ElemList>& lists);

// ------------------------------------------------------------- tracing

enum SpanName : std::uint8_t {
  kSpanQuery,     // one client operation (root)
  kSpanPlan,      // Engine::Query(...) build
  kSpanTerminal,  // Materialize()
  kSpanWrite,     // PreparedSet::Insert / Erase
  kSpanPrepare,   // the prepare calls of one setup
  kSpanLoad,      // LoadSnapshot
  kSpanCount,
};

const char* SpanNameString(SpanName name);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t query = 0;
  std::uint32_t parent = UINT32_MAX;
  SpanName name = kSpanQuery;
};

/// In-memory span recorder, written out once when the run ends.  Spans
/// nest through an explicit stack of open spans (single client thread).
class Trace {
 public:
  std::uint32_t Open(SpanName name, std::uint64_t query) {
    Span s;
    s.name = name;
    s.query = query;
    s.parent = open_.empty() ? UINT32_MAX : open_.back();
    s.start_ns = NowNs();
    spans_.push_back(s);
    open_.push_back(static_cast<std::uint32_t>(spans_.size() - 1));
    return open_.back();
  }
  void Close(std::uint32_t index) {
    spans_[index].end_ns = NowNs();
    open_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: total self time (duration minus the time covered by
  /// child spans), in ns, and span count.
  void SelfTimes(double self_ns[kSpanCount], std::size_t count[kSpanCount]) const;
  /// Writes every span as CSV (name,start_ns,end_ns,parent,query).
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span; a null trace records nothing (the untraced run).
class SpanScope {
 public:
  SpanScope(Trace* trace, SpanName name, std::uint64_t query)
      : trace_(trace), index_(trace ? trace->Open(name, query) : 0) {}
  ~SpanScope() {
    if (trace_ != nullptr) trace_->Close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Trace* trace_;
  std::uint32_t index_;
};

// ------------------------------------------------------------- metrics

struct Metric {
  double value = 0;
  std::string unit;
};

/// Metric name -> value and unit.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    items_[name] = {value, unit};
  }
  /// Throws std::out_of_range for a metric no probe set.
  const Metric& Get(const std::string& name) const { return items_.at(name); }

 private:
  std::map<std::string, Metric> items_;
};

/// Layer counters accumulated from QueryStats.
struct StatsAcc {
  double scanned = 0, results = 0, groups = 0;
  std::size_t queries = 0, within_2x = 0;
  void Add(const fsi::QueryStats& st);
  /// Sets planner.predicted_within_2x, intersect.scanned_per_result and
  /// intersect.groups_probed (per query).
  void Report(Metrics* m) const;
};

/// Failures counted against attempts (oracle mismatch, exception, a
/// ServeStatus other than kOk, a write that reports no change).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void Check(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
};

// ----------------------------------------------------------- workloads

/// What one timed phase measured.  The client replays the log in passes,
/// one cycle (writes, read, oracle check) per entry.  For every entry the
/// phase keeps its best time over the passes: the read's latency, the
/// cycle's wall time and the client thread's CPU time in the cycle.  Load
/// from other tenants of a shared host only ever adds time, and it comes
/// in bursts of seconds to minutes, so an entry's best pass is its cost
/// with the least outside interference.  The metrics summarise the same
/// set of entries on every run (the whole log, once the phase covers a
/// pass), so neither a burst nor the mix of a stretch of the run moves them.
/// The clock runs in stretches (Resume), so other work can run between.
class Phase {
 public:
  /// `entries`: the log's size.
  explicit Phase(std::size_t entries);
  /// Runs the clock for `seconds` more.
  void Resume(double seconds);
  /// Closes the cycle of log entry `entry`, whose read took `query_us`;
  /// false once the stretch's time is up.
  bool Add(std::size_t entry, double query_us);

  std::size_t queries() const { return queries_; }
  /// Log entries read at least once.
  std::size_t entries() const;
  /// Median / p99 over entries of the entry's best read latency.
  double P50() const;
  double P99() const;
  /// Entries ÷ the sum of their best cycle times: the closed-loop rate.
  double Qps() const;
  /// Mean over entries of the client's best cycle CPU time, plus the
  /// CPU of the library's background threads (process CPU minus the
  /// client thread's) over the whole phase ÷ queries.
  double CpuPerQueryUs() const;
  /// As measured over the whole phase, without taking best passes:
  /// queries ÷ wall seconds, and process CPU us ÷ queries.
  double RawQps() const;
  double RawCpuPerQueryUs() const;

  std::vector<double> write_us;

  /// An entry's best times; infinite until the entry is first read.
  struct Best {
    double query_us, cycle_us, cycle_cpu_us;
  };

 private:
  std::vector<Best> best_;
  std::size_t queries_ = 0;
  // The current stretch, and totals over the finished ones.
  std::int64_t start_ = 0, end_ = 0, last_ = 0;
  double thread_cpu0_ = 0, last_cpu_ = 0, process_cpu0_ = 0;
  double wall_s_ = 0, thread_cpu_s_ = 0, process_cpu_s_ = 0;
};

/// One workload: an engine configuration over the shared inputs.  main()
/// calls Setup several times (the last engine stays), Restart, then the
/// timed phase in stretches with a Restart between them, then — traced
/// run only — Probe.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Raw lists in memory -> ready to serve; returns seconds.  Spans (if
  /// any) cover the prepare calls.
  virtual double Setup(Trace* trace) = 0;
  /// Saves the prepared sets once (first call), then times one load and
  /// checks a few queries on the loaded sets.
  virtual double Restart(const std::string& path, Trace* trace, Tally* tally) = 0;
  /// SnapshotInfo of the last load.
  virtual fsi::SnapshotInfo LoadInfo() const = 0;
  /// Structure bytes per posting held.
  virtual double BytesPerPosting() const = 0;
  /// Hash of every log entry's plan (step algorithms / expression plan).
  virtual std::uint64_t PlanFingerprint() const = 0;
  /// Runs the closed-loop client for `seconds` more of `phase`, checking
  /// every result.
  virtual void Run(double seconds, Trace* trace, Tally* tally, Phase* phase) = 0;
  /// The traced run's workload-specific layer metrics.
  virtual void Probe(Metrics* m) const = 0;
  /// The space budget of the workload's engine (0 = unlimited).
  virtual std::size_t budget() const { return 0; }
  /// Workload-property shares for the result record (JSON fields).
  virtual std::string RecordFields() const = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Inputs& in);

// -------------------------------------------------------------- probes

/// Layer probes shared by every workload (probes.cc).  Each builds its
/// own engines over the fixed sample of the log.
constexpr std::size_t kSampleSize = 256;

void ProbeCalibration(Metrics* m);
void ProbePaper(const Inputs& in, Metrics* m, Tally* tally);
/// Compressed-set shares and slowdown under `budget`; returns the Lowbits
/// widths of the compressed sets (of the sample's lists when none is).
std::vector<int> ProbeCompressed(const Inputs& in, std::size_t budget,
                                 Metrics* m, Tally* tally);
void ProbeSimd(const Inputs& in, const std::vector<int>& decode_widths,
               Metrics* m);
void ProbeDelta(const Inputs& in, Metrics* m, Tally* tally);
/// The serving layers on twin 4-shard engines over every list, with the
/// ServeLog request mix: the first kSampleSize distinct trees in served
/// order, each on cold ExprCaches, split into the slowest shard (evaluated
/// directly on shard_engine(s)) and the Serve overhead; then one whole
/// pass replayed from a cold cache for the ExprCache counters.
struct ServeLog;
void ProbeServe(const Inputs& in, const ServeLog& log, Metrics* m, Tally* tally);
/// Mean OptimizeExpr time per tree over the serving probe's sample.
void ProbeOptimize(const Inputs& in, const ServeLog& log, Metrics* m);

/// The serving probe's request mix.  The pool holds one tree per log entry:
/// 70% And over the entry's terms, 10% Or of its first two, 10% Diff (And
/// of all but the last, minus the last), 10% AtLeast(max(1, k-1) of k).
/// Shapes rotate over (round + stratum), so every cost stratum gets each
/// shape equally often.  The served order is head-heavy: it interleaves a
/// walk over the whole pool with a cycle over a hot set of kStrata trees
/// (the log's first round).  Hot trees repeat every 2 * kStrata requests
/// and hit the per-shard ExprCache; the walk inserts a pass's worth of
/// results, which evicts.
struct ServeLog {
  std::vector<Tree> pool;
  std::vector<std::size_t> served;            // pool ids, in order
  std::map<std::size_t, ElemList> expected;   // oracle per served pool id
};
ServeLog MakeServeLog(const Inputs& in);

/// 4 shards over the document universe and one scatter worker, which runs
/// a query's shard tasks one after another, so the probe's Serve calls
/// share no cores with the client beyond that one worker.
fsi::ShardedEngineOptions ServeOptions(const Inputs& in);

/// Builds an fsi::Expr or fsi::ShardedExpr (same static factories) for
/// `tree`, with leaf handles taken from `leaf(slot)`.
template <typename E, typename Leaf>
E BuildTree(const Tree& tree, Leaf&& leaf) {
  std::vector<E> kids;
  for (std::size_t s : tree.slots) kids.push_back(E::Set(leaf(s)));
  switch (tree.kind) {
    case fsi::ExprKind::kOr:
      return E::Or(std::move(kids));
    case fsi::ExprKind::kDiff: {
      E exclude = kids.back();
      kids.pop_back();
      return E::Diff(E::And(std::move(kids)), exclude);
    }
    case fsi::ExprKind::kAtLeast:
      return E::AtLeast(tree.threshold, std::move(kids));
    default:
      return E::And(std::move(kids));
  }
}

/// One engine of a timing comparison, with its prepared sets indexed by
/// slot.
struct Arm {
  const fsi::Engine* engine;
  const std::vector<fsi::PreparedSet>* sets;
};

/// Per-arm, per-query times (microseconds, best of three after one warm
/// run) of the log entries `sample`, the arms interleaved per query.
/// Results are checked against the oracle.
std::vector<std::vector<double>> SampleTimes(const std::vector<Arm>& arms, const Inputs& in,
                                             const std::vector<std::size_t>& sample,
                                             Tally* tally);
/// Prepares the lists of `slots` on `e`, indexed by slot.
std::vector<fsi::PreparedSet> PrepareSlots(const fsi::Engine& e, const Inputs& in,
                                           const std::vector<std::size_t>& slots);
/// Distinct slots used by log entries `sample`.
std::vector<std::size_t> SlotsOf(const Inputs& in, const std::vector<std::size_t>& sample);

/// The churn workload's write load: kChurnWritesPerRead Insert (or, on
/// odd passes, Erase) calls before every read, to one of up to
/// kChurnTargets lists.  The targets take turns in blocks of
/// kChurnBlockReads consecutive reads.  Each target then gets 4000 writes
/// per pass of the 2000-entry log, 1.6 to 5 times its compaction trigger
/// under the MutableSetOptions defaults for a list of 8k..24k postings,
/// and is quiet for three blocks (about 60 reads) after each of its own,
/// so the rebuild its writes scheduled can publish: the library drops a
/// background rebuild when a write to its set lands during it and starts
/// another at once, so a target written without pause keeps the
/// compaction worker busy with rebuilds that never publish.
constexpr std::size_t kChurnTargets = 4;
constexpr std::size_t kChurnWritesPerRead = 8;
constexpr std::size_t kChurnBlockReads = 20;

/// Slots of the churn write targets: the most-queried terms whose lists
/// hold 8k..24k postings.
std::vector<std::size_t> ChurnTargets(const Inputs& in);

/// `count` distinct ids not in the list of `slot`, in random write order.
std::vector<Elem> ChurnIds(const Inputs& in, std::size_t slot, std::size_t count);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
