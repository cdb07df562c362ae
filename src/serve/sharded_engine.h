// Sharded scatter-gather serving: one query, S engines, a deadline.
//
// A single fsi::Engine answers one query on one thread.  That is the
// right shape for a batch job; a serving tier with latency SLOs wants
// the opposite trade: spend *more* total work per query to cut its
// wall-clock latency, bound how much work is in flight, and degrade
// gracefully when a deadline fires anyway.  ShardedEngine is that tier:
//
//   fsi::ShardedEngine engine({.num_shards = 8,
//                              .universe_bound = corpus_size});
//   fsi::ShardedSet a = engine.Prepare(posting_a);   // split + prepared
//   fsi::ShardedSet b = engine.Prepare(posting_b);   //   once per shard
//
//   fsi::ServeResult r = engine.Serve({&a, &b}, {.deadline = 2ms});
//   switch (r.status) { ... }          // kOk / kPartial / kExpired / kRejected
//
// The element universe is partitioned into S contiguous ranges by a
// mask+shift ShardMap (serve/shard_map.h); each shard runs a private
// fsi::Engine (its own planner, its own per-shard plans), and a query
// scatters one task per shard onto a shared ThreadPool, then gathers:
// because shards are contiguous ranges, the gather is concatenation in
// shard order and the result is bitwise-identical to a single Engine
// over the unsharded corpus.
//
// The serving semantics, in the order a query meets them:
//
//  1. **Admission** (serve/admission.h): at most `max_in_flight` queries
//     may be between admission and gather completion.  Beyond that,
//     Serve returns ServeStatus::kRejected immediately — typed back-
//     pressure the caller can retry against a replica, instead of a
//     queue that converts overload into universal deadline misses.
//  2. **Deadline at admission**: a query whose deadline is already
//     expired (<= 0, or set in the past) returns kExpired without
//     scattering any work.
//  3. **Deadline mid-gather**: the gather waits for all S shards *until
//     the deadline*.  Shards that answered in time are included; the
//     rest are abandoned (their tasks self-cancel when they observe the
//     finalized flag) and the result carries status kPartial with
//     `shards_missed` > 0 — a smaller-but-valid result set, never a
//     blocked caller.  See docs/SERVING.md, "The partial-result
//     contract".
//
// Serve() is safe to call concurrently from any number of front-end
// threads (admission, counters and the scatter pool are all internally
// synchronized); ServeBatch() mirrors BatchRunner's single-driver
// convention and fills a BatchStats with p50/p95/p99 latency and the
// deadline-miss/rejection counts.  Do not call Serve from inside a task
// running on this engine's own pool (the gather would deadlock the
// pool on itself — same restriction as ThreadPool itself).

#ifndef FSI_SERVE_SHARDED_ENGINE_H_
#define FSI_SERVE_SHARDED_ENGINE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/batch_runner.h"
#include "api/engine.h"
#include "api/expr.h"
#include "api/thread_pool.h"
#include "serve/admission.h"
#include "serve/shard_map.h"
#include "util/timer.h"

namespace fsi {

/// Construction options for ShardedEngine.
struct ShardedEngineOptions {
  /// Shards (per-shard engines); a power of two.  1 is a valid
  /// deployment: admission + deadlines over a single engine.
  std::size_t num_shards = 8;
  /// Exclusive upper bound of the element universe (document-id space).
  /// 0 means the full 32-bit space — fine for correctness, but shard
  /// balance needs the real bound (docs/SERVING.md, "Tuning").
  Elem universe_bound = 0;
  /// Registry spec of every per-shard engine ("Planner" = cost-model
  /// planner per shard, each calibrated/planning over its own slice).
  std::string spec = "Planner";
  std::uint64_t seed = kDefaultAlgorithmSeed;
  ValidationPolicy validation = ValidationPolicy::kDefault;
  /// Scatter-pool workers; 0 means ThreadPool::DefaultConcurrency().
  std::size_t num_threads = 0;
  /// Admission bound: queries in flight beyond this are rejected.
  std::size_t max_in_flight = 1024;
  /// Deadline applied when ServeOptions carries none; <= 0 means no
  /// default deadline.
  std::chrono::microseconds default_deadline{0};
  /// Total space budget across all shards, split evenly into each
  /// per-shard engine's EngineOptions::space_budget_bytes (planner specs
  /// only — the per-shard Engine constructor throws otherwise).  0 means
  /// unlimited.  Results stay bitwise-identical; only the representation
  /// (and decode cost) of budget-evicted sets changes.
  std::size_t space_budget_bytes = 0;
  /// Per-shard EngineOptions::min_compress_size passthrough.  Note the
  /// dial compares each shard's *slice* size against this, and sharding
  /// divides set sizes by ~num_shards — tune it for slice sizes.
  std::size_t min_compress_size = 1024;
};

/// How one served query ended.
enum class ServeStatus {
  kOk,        // all shards answered in time: the complete result
  kPartial,   // deadline fired mid-gather: result from the shards that
              // answered; shards_missed > 0
  kExpired,   // deadline already expired at admission: no work scattered
  kRejected,  // admission bound hit: no work scattered, retry elsewhere
};

std::string_view ToString(ServeStatus status);

/// Per-query serving options.
struct ServeOptions {
  /// Relative deadline for this query; unset inherits the engine's
  /// default_deadline.  A present value <= 0 is an already-expired
  /// deadline (kExpired at admission).
  std::optional<std::chrono::microseconds> deadline;
  /// Result in document-id order (bitwise-identical to an unsharded
  /// Engine).  false skips the guarantee of a globally defined order —
  /// each shard's slice is still internally ordered per its algorithm.
  bool ordered = true;
  /// Keep at most `limit` result elements (per Query::Limit semantics).
  std::size_t limit = SIZE_MAX;
  /// Count only: result_size is filled, elems stays empty.
  bool count_only = false;
};

/// The outcome of one Serve() call.
struct ServeResult {
  ServeStatus status = ServeStatus::kOk;
  /// The gathered result elements (empty for count_only, kExpired and
  /// kRejected).  For kPartial: the union of the shards that answered —
  /// a subset of the true result.
  ElemList elems;
  /// Result size after any limit (count_only's only output).
  std::size_t result_size = 0;
  std::size_t shards_answered = 0;
  std::size_t shards_missed = 0;
  /// Sums of the per-shard QueryStats over the answering shards.
  std::size_t elements_scanned = 0;
  double predicted_micros = 0.0;
  /// End-to-end wall time of this Serve call (admission to gather).
  double wall_micros = 0.0;

  bool ok() const { return status == ServeStatus::kOk; }
  /// True when the result may be missing elements (any non-kOk state).
  bool partial() const { return status != ServeStatus::kOk; }
};

/// Cumulative serving counters since construction (all queries, all
/// threads).  Snapshot via ShardedEngine::counters().
struct ServeCounters {
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  /// kExpired admissions + kPartial gathers (per query, not per shard).
  std::uint64_t deadline_misses = 0;
  /// Queries that ran to a gather (kOk + kPartial).
  std::uint64_t served = 0;
  /// Queries currently between admission and gather.
  std::size_t in_flight = 0;
};

/// A value-semantic handle owning one logical set, split into per-shard
/// prepared structures (one PreparedSet per shard, empty shards
/// included).  Copies share the underlying structures.  Built by
/// ShardedEngine::Prepare; usable only with the engine that built it.
class ShardedSet {
 public:
  ShardedSet() = default;

  bool empty_handle() const { return shards_.empty(); }
  /// Total elements across all shards.
  std::size_t size() const { return total_; }
  std::size_t num_shards() const { return shards_.size(); }
  /// Elements held by shard `s`.
  std::size_t shard_size(std::size_t s) const { return shards_[s].size(); }
  /// The per-shard prepared structure (for introspection/tests).
  const PreparedSet& shard(std::size_t s) const { return shards_[s]; }

 private:
  friend class ShardedEngine;
  friend class ShardedExpr;
  ShardedSet(std::shared_ptr<const int> tag, std::vector<PreparedSet> shards,
             std::size_t total)
      : tag_(std::move(tag)), shards_(std::move(shards)), total_(total) {}

  std::shared_ptr<const int> tag_;  // identity of the owning engine
  std::vector<PreparedSet> shards_;
  std::size_t total_ = 0;
};

/// A boolean expression over sharded sets: the same builders as
/// fsi::Expr (api/expr.h) with ShardedSet leaves.  Each builder composes
/// the per-shard Exprs right away, so a ShardedExpr is one Expr per shard
/// plus the identity of the engine its leaves belong to; Serve runs shard
/// `s`'s Expr on shard `s`.  Because every shard owns a contiguous id
/// range and all of the algebra's operations are element-local,
/// concatenating the per-shard results in shard order is bitwise-identical
/// to single-engine evaluation over the unsharded corpus.  A tree holds
/// the leaves of one engine only: a builder throws std::invalid_argument
/// when its children mix two.  Value-semantic and immutable, like Expr.
class ShardedExpr {
 public:
  ShardedExpr() = default;

  /// Leaf over one sharded set.  Throws on an empty handle.
  static ShardedExpr Set(const ShardedSet& set);
  /// Intersection / union of >= 1 subexpressions (throws on zero
  /// children or empty-handle children, like the Expr builders).
  static ShardedExpr And(std::vector<ShardedExpr> children);
  static ShardedExpr Or(std::vector<ShardedExpr> children);
  /// Difference include \ exclude.
  static ShardedExpr Diff(ShardedExpr include, ShardedExpr exclude);
  /// t-of-k threshold (children counted with multiplicity; throws on
  /// threshold == 0; threshold > k is valid and always empty).
  static ShardedExpr AtLeast(std::size_t threshold,
                             std::vector<ShardedExpr> children);
  /// The constant empty set (Expr::None() on every shard); it belongs to
  /// no engine, so it composes with, and serves on, any.
  static ShardedExpr None();

  bool empty_handle() const { return node_ == nullptr; }

 private:
  friend class ShardedEngine;
  struct Node {
    /// Identity of the engine whose sets the leaves are; null for a tree
    /// built from None() alone.
    std::shared_ptr<const int> tag;
    /// Shard `s`'s expression, one per shard; a tree without leaves holds
    /// the single Expr every shard evaluates.
    std::vector<Expr> shards;
  };
  explicit ShardedExpr(std::shared_ptr<const Node> node)
      : node_(std::move(node)) {}

  const Expr& Shard(std::size_t s) const {
    return node_->shards[node_->tag ? s : 0];
  }
  /// The And/Or/Diff/AtLeast builders: checks `children` (at least one,
  /// no empty handle, one engine) and builds each shard's node by `make`
  /// over the children's expressions for that shard.
  template <typename Make>
  static ShardedExpr Combine(const char* builder,
                             const std::vector<ShardedExpr>& children,
                             Make make);

  std::shared_ptr<const Node> node_;
};

struct LoadedShardedSnapshot;

/// S per-shard engines behind one shard map, serving scatter-gather
/// queries with admission control and per-query deadlines.  Immovable
/// (it owns the scatter ThreadPool); share it by reference — Serve and
/// Prepare are const and thread-safe.
class ShardedEngine {
 public:
  explicit ShardedEngine(ShardedEngineOptions options = {});

  /// Splits one sorted, duplicate-free set by the shard map and
  /// preprocesses each slice in its shard's engine.  Validation follows
  /// the engine's ValidationPolicy, on the whole set before splitting.
  ShardedSet Prepare(std::span<const Elem> set) const;
  ShardedSet Prepare(std::initializer_list<Elem> set) const {
    return Prepare(std::span<const Elem>(set.begin(), set.size()));
  }

  /// Serves one conjunctive query over sharded sets: admission check,
  /// scatter one task per shard, gather until done or deadline.  Every
  /// handle must be non-empty and built by this engine, and the query
  /// arity must fit the per-shard algorithm — violations throw
  /// std::invalid_argument on the calling thread (never a partial
  /// scatter).  Thread-safe: call from any number of front-end threads.
  ServeResult Serve(std::span<const ShardedSet* const> sets,
                    ServeOptions options = {}) const;
  ServeResult Serve(std::initializer_list<const ShardedSet*> sets,
                    ServeOptions options = {}) const {
    return Serve(std::span<const ShardedSet* const>(sets.begin(), sets.size()),
                 options);
  }

  /// Serves one boolean-expression query (And/Or/Diff/AtLeast over
  /// sharded sets): each shard's engine evaluates the shard's Expr
  /// (api/expr.h — including its optimizer and memoization cache), and
  /// the gather concatenates — bitwise-identical to single-engine
  /// evaluation for complete (kOk) results.  Same admission/deadline
  /// semantics as the conjunctive Serve; the leaves must be built by this
  /// engine.  Expression queries have no arity limit.
  ServeResult Serve(const ShardedExpr& expr, ServeOptions options = {}) const;

  /// One query of a served batch: the sharded sets to intersect.
  using ShardedQuery = std::vector<const ShardedSet*>;

  /// Serves a query log sequentially from this thread (each query still
  /// fans out over all shards) and fills batch_stats() with the merged
  /// latency percentiles (p50/p95/p99/max), throughput and the
  /// deadline-miss/rejection counts.  Mirrors BatchRunner's driver
  /// convention: one thread drives a batch; use concurrent Serve calls
  /// for a multi-frontend deployment.
  std::vector<ServeResult> ServeBatch(std::span<const ShardedQuery> queries,
                                      ServeOptions options = {});

  /// Statistics of the most recent ServeBatch.
  const BatchStats& batch_stats() const { return batch_stats_; }

  /// Cumulative serving counters (thread-safe snapshot).
  ServeCounters counters() const;

  // Per-shard snapshot persistence (docs/SERVING.md, "Per-shard
  // snapshots"): `path` holds a small shard-map manifest, and each shard
  // writes an independent engine image to `path + ".shard<i>"` — shards
  // cold-start independently, each mmap'd zero-copy
  // (docs/PERSISTENCE.md).

  /// Saves the shard manifest and one engine image per shard.  `sets`
  /// must all be built by this engine; their order is preserved by Load.
  void SaveSnapshot(const std::string& path,
                    std::span<const ShardedSet* const> sets) const;
  void SaveSnapshot(const std::string& path,
                    std::initializer_list<const ShardedSet*> sets) const {
    SaveSnapshot(path,
                 std::span<const ShardedSet* const>(sets.begin(), sets.size()));
  }

  /// Runtime options for LoadSnapshot (the persisted side — shard
  /// count, universe bound, spec, seed — comes from the files).
  struct LoadOptions {
    SnapshotLoadOptions snapshot = {};
    std::size_t num_threads = 0;
    std::size_t max_in_flight = 1024;
    std::chrono::microseconds default_deadline{0};
  };

  /// Loads a snapshot saved by SaveSnapshot: reads the manifest,
  /// mmap-loads every shard image, reassembles the sharded sets (same
  /// order as at save).  Throws storage::SnapshotError on anything
  /// malformed or missing.
  static LoadedShardedSnapshot LoadSnapshot(const std::string& path,
                                            LoadOptions options);
  static LoadedShardedSnapshot LoadSnapshot(const std::string& path);

  std::size_t num_shards() const { return map_.num_shards(); }
  const ShardMap& shard_map() const { return map_; }
  /// The per-shard engine (its spec/seed are uniform across shards).
  const Engine& shard_engine(std::size_t s) const { return engines_[s]; }
  std::size_t num_threads() const { return pool_.num_threads(); }
  const ShardedEngineOptions& options() const { return options_; }

 private:
  struct QueryState;  // the shared scatter-gather state of one query

  /// The LoadSnapshot tail: adopts already-loaded per-shard engines and
  /// the identity tag its reassembled sets were built with.
  ShardedEngine(ShardedEngineOptions options, std::vector<Engine> engines,
                std::shared_ptr<const int> tag);

  /// Throws std::invalid_argument unless `set` is a non-empty handle
  /// built by this engine; `caller` prefixes the message.
  void CheckSet(const ShardedSet* set, const char* caller) const;
  /// The shared scatter-gather core: admission, deadline resolution,
  /// one task per shard, gather until complete or deadline.  `state`
  /// arrives with its per-shard inputs (flat handles or expressions)
  /// already filled.
  ServeResult ServeScattered(std::shared_ptr<QueryState> state,
                             ServeOptions options, Timer& wall) const;

  ShardedEngineOptions options_;
  ShardMap map_;
  std::vector<Engine> engines_;  // one per shard
  std::shared_ptr<const int> tag_;
  mutable ThreadPool pool_;
  mutable AdmissionController admission_;
  mutable std::atomic<std::uint64_t> deadline_misses_{0};
  mutable std::atomic<std::uint64_t> served_{0};
  BatchStats batch_stats_;
};

/// The result of ShardedEngine::LoadSnapshot: the reconstructed engine,
/// the sharded sets (same order as at save), and one load report per
/// shard image.
struct LoadedShardedSnapshot {
  ShardedEngine engine;
  std::vector<ShardedSet> sets;
  std::vector<SnapshotInfo> shard_infos;
};

inline LoadedShardedSnapshot ShardedEngine::LoadSnapshot(
    const std::string& path) {
  return LoadSnapshot(path, LoadOptions{});
}

}  // namespace fsi

#endif  // FSI_SERVE_SHARDED_ENGINE_H_
