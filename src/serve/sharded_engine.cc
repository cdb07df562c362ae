#include "serve/sharded_engine.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <utility>

#include "storage/layout.h"
#include "util/stats.h"
#include "util/timer.h"

namespace fsi {

namespace {

using Clock = std::chrono::steady_clock;

constexpr char kManifestMagic[] = "fsi-sharded-manifest";
constexpr int kManifestVersion = 1;

std::string ShardPath(const std::string& path, std::size_t shard) {
  return path + ".shard" + std::to_string(shard);
}

double Micros(const Timer& timer) {
  return static_cast<double>(timer.ElapsedNanos()) * 1e-3;
}

}  // namespace

std::string_view ToString(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kPartial:
      return "partial";
    case ServeStatus::kExpired:
      return "expired";
    case ServeStatus::kRejected:
      return "rejected";
  }
  return "unknown";
}

/// The shared state of one scattered query.  Owned by shared_ptr: the
/// gather may abandon it at the deadline while shard tasks are still
/// queued, so the tasks (which each hold a reference) must outlive the
/// Serve call that spawned them.  Everything below `mutex` is guarded
/// by it; the per-shard input handles are written once before scatter
/// and read-only afterwards.
struct ShardedEngine::QueryState {
  /// Per-shard copies of the input handles (shared ownership), so a
  /// late task never touches caller-owned ShardedSet objects after a
  /// partial gather returned.  [shard][set].
  std::vector<std::vector<PreparedSet>> inputs;
  /// Expression queries: each shard's Expr (each holds shared ownership
  /// of its leaves).  Non-empty exactly when the query is an expression.
  std::vector<Expr> exprs;

  std::mutex mutex;
  std::condition_variable cv;
  std::size_t remaining = 0;
  /// Set by the gather once it stops listening (complete or deadline):
  /// tasks that observe it skip their work entirely.
  bool finalized = false;
  std::exception_ptr error;

  struct Slot {
    ElemList elems;
    QueryStats stats;
    bool computed = false;
  };
  std::vector<Slot> slots;
};

ShardedEngine::ShardedEngine(ShardedEngineOptions options)
    : options_(std::move(options)),
      map_(options_.num_shards, options_.universe_bound),
      tag_(std::make_shared<int>(0)),
      pool_(options_.num_threads),
      admission_(options_.max_in_flight) {
  // Even split of the space budget; a tiny non-zero total still rounds
  // up to 1 per shard so it means "compress aggressively", not "off".
  std::size_t per_shard_budget =
      options_.space_budget_bytes / map_.num_shards();
  if (options_.space_budget_bytes != 0 && per_shard_budget == 0) {
    per_shard_budget = 1;
  }
  engines_.reserve(map_.num_shards());
  for (std::size_t s = 0; s < map_.num_shards(); ++s) {
    engines_.emplace_back(
        options_.spec,
        EngineOptions{.seed = options_.seed,
                      .validation = options_.validation,
                      .space_budget_bytes = per_shard_budget,
                      .min_compress_size = options_.min_compress_size});
  }
}

ShardedEngine::ShardedEngine(ShardedEngineOptions options,
                             std::vector<Engine> engines,
                             std::shared_ptr<const int> tag)
    : options_(std::move(options)),
      map_(options_.num_shards, options_.universe_bound),
      engines_(std::move(engines)),
      tag_(std::move(tag)),
      pool_(options_.num_threads),
      admission_(options_.max_in_flight) {}

ShardedSet ShardedEngine::Prepare(std::span<const Elem> set) const {
  // Split assumes sorted input, so the whole-set check runs up front
  // (per-shard Prepare re-checks each slice under the same policy).
  if (ValidationEnabled(options_.validation)) {
    CheckSortedUnique(set, "ShardedEngine::Prepare");
  }
  std::vector<ElemList> slices = map_.Split(set);
  std::vector<PreparedSet> shards;
  shards.reserve(slices.size());
  for (std::size_t s = 0; s < slices.size(); ++s) {
    shards.push_back(engines_[s].Prepare(slices[s]));
  }
  return ShardedSet(tag_, std::move(shards), set.size());
}

void ShardedEngine::CheckSet(const ShardedSet* set, const char* caller) const {
  if (set == nullptr || set->empty_handle()) {
    throw std::invalid_argument(std::string(caller) +
                                ": empty ShardedSet handle");
  }
  if (set->tag_ != tag_) {
    throw std::invalid_argument(
        std::string(caller) +
        ": set was prepared by a different ShardedEngine");
  }
}

// --- ShardedExpr -----------------------------------------------------------

ShardedExpr ShardedExpr::Set(const ShardedSet& set) {
  if (set.empty_handle()) {
    throw std::invalid_argument("ShardedExpr::Set: empty ShardedSet handle");
  }
  auto node = std::make_shared<Node>();
  node->tag = set.tag_;
  node->shards.reserve(set.num_shards());
  for (const PreparedSet& slice : set.shards_) {
    node->shards.push_back(Expr::Set(slice));
  }
  return ShardedExpr(std::move(node));
}

template <typename Make>
ShardedExpr ShardedExpr::Combine(const char* builder,
                                 const std::vector<ShardedExpr>& children,
                                 Make make) {
  const std::string where = std::string("ShardedExpr::") + builder;
  if (children.empty()) {
    throw std::invalid_argument(where + ": at least one child required");
  }
  auto node = std::make_shared<Node>();
  std::size_t num_shards = 1;
  for (const ShardedExpr& c : children) {
    if (c.empty_handle()) {
      throw std::invalid_argument(where + ": empty handle among children");
    }
    if (c.node_->tag == nullptr) continue;
    if (node->tag == nullptr) {
      node->tag = c.node_->tag;
      num_shards = c.node_->shards.size();
    } else if (c.node_->tag != node->tag) {
      throw std::invalid_argument(
          where + ": children hold sets of different ShardedEngines");
    }
  }
  node->shards.reserve(num_shards);
  std::vector<Expr> shard_children(children.size());
  for (std::size_t s = 0; s < num_shards; ++s) {
    for (std::size_t i = 0; i < children.size(); ++i) {
      shard_children[i] = children[i].Shard(s);
    }
    node->shards.push_back(make(shard_children));
  }
  return ShardedExpr(std::move(node));
}

ShardedExpr ShardedExpr::And(std::vector<ShardedExpr> children) {
  return Combine("And", children, Expr::And);
}

ShardedExpr ShardedExpr::Or(std::vector<ShardedExpr> children) {
  return Combine("Or", children, Expr::Or);
}

ShardedExpr ShardedExpr::Diff(ShardedExpr include, ShardedExpr exclude) {
  return Combine("Diff", {std::move(include), std::move(exclude)},
                 [](const std::vector<Expr>& c) {
                   return Expr::Diff(c[0], c[1]);
                 });
}

ShardedExpr ShardedExpr::AtLeast(std::size_t threshold,
                                 std::vector<ShardedExpr> children) {
  return Combine("AtLeast", children,
                 [threshold](std::vector<Expr> c) {
                   return Expr::AtLeast(threshold, std::move(c));
                 });
}

ShardedExpr ShardedExpr::None() {
  return ShardedExpr(
      std::make_shared<const Node>(Node{nullptr, {Expr::None()}}));
}

ServeResult ShardedEngine::Serve(std::span<const ShardedSet* const> sets,
                                 ServeOptions options) const {
  Timer wall;
  for (const ShardedSet* set : sets) CheckSet(set, "ShardedEngine::Serve");
  const std::size_t max_arity = engines_.front().max_query_sets();
  if (sets.size() > max_arity) {
    throw std::invalid_argument(
        "ShardedEngine::Serve: query has " + std::to_string(sets.size()) +
        " sets but the per-shard algorithm supports at most " +
        std::to_string(max_arity));
  }
  const std::size_t num_shards = map_.num_shards();

  if (sets.empty()) {
    // An empty query intersects nothing: complete, empty result, no
    // scatter — mirrors Engine::Query({}).
    ServeResult out;
    out.shards_answered = num_shards;
    out.wall_micros = Micros(wall);
    return out;
  }

  auto state = std::make_shared<QueryState>();
  state->inputs.resize(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    state->inputs[s].reserve(sets.size());
    for (const ShardedSet* set : sets) {
      state->inputs[s].push_back(set->shards_[s]);
    }
  }
  return ServeScattered(std::move(state), options, wall);
}

ServeResult ShardedEngine::Serve(const ShardedExpr& expr,
                                 ServeOptions options) const {
  Timer wall;
  if (expr.empty_handle()) {
    throw std::invalid_argument(
        "ShardedEngine::Serve: empty ShardedExpr handle");
  }
  if (expr.node_->tag != nullptr && expr.node_->tag != tag_) {
    throw std::invalid_argument(
        "ShardedEngine::Serve: ShardedExpr holds sets prepared by a "
        "different ShardedEngine");
  }
  auto state = std::make_shared<QueryState>();
  const std::size_t num_shards = map_.num_shards();
  state->exprs.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    state->exprs.push_back(expr.Shard(s));
  }
  return ServeScattered(std::move(state), options, wall);
}

ServeResult ShardedEngine::ServeScattered(std::shared_ptr<QueryState> state,
                                          ServeOptions options,
                                          Timer& wall) const {
  const std::size_t num_shards = map_.num_shards();
  ServeResult out;

  AdmissionTicket ticket(admission_.TryAdmit() ? &admission_ : nullptr);
  if (!ticket.admitted()) {
    out.status = ServeStatus::kRejected;
    out.shards_missed = num_shards;
    out.wall_micros = Micros(wall);
    return out;
  }

  // Resolve the deadline: per-query value, else the engine default.
  std::optional<Clock::time_point> deadline;
  const std::chrono::microseconds relative =
      options.deadline.value_or(options_.default_deadline);
  const bool has_deadline =
      options.deadline.has_value() || options_.default_deadline.count() > 0;
  if (has_deadline) {
    if (relative.count() <= 0) {
      // Zero or negative budget: expired at admission, nothing scattered.
      deadline_misses_.fetch_add(1, std::memory_order_relaxed);
      out.status = ServeStatus::kExpired;
      out.shards_missed = num_shards;
      out.wall_micros = Micros(wall);
      return out;
    }
    deadline = Clock::now() + relative;
  }

  state->slots.resize(num_shards);
  state->remaining = num_shards;

  auto run_shard = [this, state, options, deadline](std::size_t s) {
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      if (state->finalized) {
        // The gather already returned (deadline) — don't burn pool time
        // computing a result nobody will read.
        --state->remaining;
        return;
      }
    }
    QueryState::Slot slot;
    try {
      if (!deadline || Clock::now() < *deadline) {
        fsi::Query query =
            state->exprs.empty()
                ? engines_[s].Query(std::span<const PreparedSet>(
                      state->inputs[s]))
                : engines_[s].Query(state->exprs[s]);
        if (!options.ordered || options.count_only) query.Unordered();
        query.Limit(options.limit);
        if (options.count_only) {
          query.CountOnly();
          slot.stats = query.Execute();
        } else {
          slot.stats = query.ExecuteInto(&slot.elems);
        }
        slot.computed = true;
      }
      // else: the deadline fired before this task started — report the
      // shard as missed (computing anyway could not make the gather).
    } catch (...) {
      std::lock_guard<std::mutex> lock(state->mutex);
      if (!state->error) state->error = std::current_exception();
      slot.computed = false;
    }
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      if (slot.computed) state->slots[s] = std::move(slot);
      --state->remaining;
    }
    state->cv.notify_all();
  };

  // Scatter.  If a Submit itself throws (allocation failure), never
  // unwind past tasks already in flight: balance `remaining` for the
  // unsubmitted shards, drain, rethrow.
  std::size_t submitted = 0;
  try {
    for (; submitted < num_shards; ++submitted) {
      pool_.Submit([run_shard, submitted] { run_shard(submitted); });
    }
  } catch (...) {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->finalized = true;
    state->remaining -= num_shards - submitted;
    state->cv.wait(lock, [&] { return state->remaining == 0; });
    throw;
  }

  // Gather: all shards, or as many as the deadline allows.
  std::unique_lock<std::mutex> lock(state->mutex);
  if (deadline) {
    state->cv.wait_until(lock, *deadline,
                         [&] { return state->remaining == 0; });
  } else {
    state->cv.wait(lock, [&] { return state->remaining == 0; });
  }
  state->finalized = true;
  if (state->error) std::rethrow_exception(state->error);

  std::size_t count_sum = 0;
  for (std::size_t s = 0; s < num_shards; ++s) {
    QueryState::Slot& slot = state->slots[s];
    if (!slot.computed) {
      ++out.shards_missed;
      continue;
    }
    ++out.shards_answered;
    count_sum += slot.stats.result_size;
    out.elements_scanned += slot.stats.elements_scanned;
    out.predicted_micros += slot.stats.predicted_micros;
    if (!options.count_only && !slot.elems.empty()) {
      // Shards own contiguous id ranges, so appending in shard order
      // keeps the gathered result globally sorted (ordered mode).
      out.elems.insert(out.elems.end(), slot.elems.begin(), slot.elems.end());
    }
  }
  lock.unlock();

  if (!options.count_only && out.elems.size() > options.limit) {
    out.elems.resize(options.limit);
  }
  out.result_size = options.count_only ? std::min(count_sum, options.limit)
                                       : out.elems.size();
  if (out.shards_missed > 0) {
    out.status = ServeStatus::kPartial;
    deadline_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  served_.fetch_add(1, std::memory_order_relaxed);
  out.wall_micros = Micros(wall);
  return out;
}

std::vector<ServeResult> ShardedEngine::ServeBatch(
    std::span<const ShardedQuery> queries, ServeOptions options) {
  batch_stats_ = BatchStats{};
  batch_stats_.num_queries = queries.size();
  batch_stats_.num_threads = pool_.num_threads();

  std::vector<ServeResult> results;
  results.reserve(queries.size());
  SampleStats latency;
  Timer batch_timer;
  for (const ShardedQuery& query : queries) {
    ServeResult result = Serve(
        std::span<const ShardedSet* const>(query.data(), query.size()),
        options);
    switch (result.status) {
      case ServeStatus::kRejected:
        ++batch_stats_.rejected;
        break;
      case ServeStatus::kExpired:
      case ServeStatus::kPartial:
        ++batch_stats_.deadline_misses;
        break;
      case ServeStatus::kOk:
        break;
    }
    if (result.status != ServeStatus::kRejected) {
      latency.Add(result.wall_micros);
      batch_stats_.elements_scanned += result.elements_scanned;
      batch_stats_.predicted_micros += result.predicted_micros;
      batch_stats_.total_results += result.result_size;
    }
    results.push_back(std::move(result));
  }
  batch_stats_.wall_ms = batch_timer.ElapsedMillis();
  batch_stats_.p50_micros = latency.Percentile(0.50);
  batch_stats_.p95_micros = latency.Percentile(0.95);
  batch_stats_.p99_micros = latency.Percentile(0.99);
  batch_stats_.max_micros = latency.Max();
  if (batch_stats_.wall_ms > 0.0) {
    batch_stats_.queries_per_second =
        static_cast<double>(queries.size()) / (batch_stats_.wall_ms * 1e-3);
  }
  return results;
}

ServeCounters ShardedEngine::counters() const {
  ServeCounters counters;
  counters.admitted = admission_.admitted();
  counters.rejected = admission_.rejected();
  counters.deadline_misses =
      deadline_misses_.load(std::memory_order_relaxed);
  counters.served = served_.load(std::memory_order_relaxed);
  counters.in_flight = admission_.in_flight();
  return counters;
}

void ShardedEngine::SaveSnapshot(
    const std::string& path,
    std::span<const ShardedSet* const> sets) const {
  for (const ShardedSet* set : sets) {
    CheckSet(set, "ShardedEngine::SaveSnapshot");
  }
  // One independent engine image per shard...
  for (std::size_t s = 0; s < map_.num_shards(); ++s) {
    std::vector<PreparedSet> shard_sets;
    shard_sets.reserve(sets.size());
    for (const ShardedSet* set : sets) shard_sets.push_back(set->shards_[s]);
    engines_[s].SaveSnapshot(ShardPath(path, s),
                             std::span<const PreparedSet>(shard_sets));
  }
  // ... and the manifest last, so a crashed save never leaves a
  // manifest pointing at missing shard images.
  std::ofstream manifest(path, std::ios::trunc);
  manifest << kManifestMagic << ' ' << kManifestVersion << '\n'
           << "num_shards " << map_.num_shards() << '\n'
           << "universe_bound " << options_.universe_bound << '\n'
           << "num_sets " << sets.size() << '\n';
  manifest.flush();
  if (!manifest) {
    throw storage::SnapshotError(storage::SnapshotErrorCode::kIo,
                                 "ShardedEngine::SaveSnapshot: cannot write "
                                 "manifest " + path);
  }
}

LoadedShardedSnapshot ShardedEngine::LoadSnapshot(const std::string& path,
                                                  LoadOptions options) {
  using storage::SnapshotError;
  using storage::SnapshotErrorCode;

  std::ifstream manifest(path);
  if (!manifest) {
    throw SnapshotError(SnapshotErrorCode::kIo,
                        "ShardedEngine::LoadSnapshot: cannot open manifest " +
                            path);
  }
  std::string magic;
  int version = 0;
  manifest >> magic >> version;
  if (!manifest || magic != kManifestMagic) {
    throw SnapshotError(SnapshotErrorCode::kBadMagic,
                        path + " is not a sharded-snapshot manifest");
  }
  if (version != kManifestVersion) {
    throw SnapshotError(SnapshotErrorCode::kBadVersion,
                        path + ": manifest version " +
                            std::to_string(version) + " is unsupported");
  }
  std::size_t num_shards = 0;
  unsigned long long universe_bound = 0;
  std::size_t num_sets = 0;
  std::string key;
  if (!(manifest >> key >> num_shards) || key != "num_shards" ||
      !(manifest >> key >> universe_bound) || key != "universe_bound" ||
      !(manifest >> key >> num_sets) || key != "num_sets") {
    throw SnapshotError(SnapshotErrorCode::kCorrupt,
                        path + ": malformed sharded-snapshot manifest");
  }
  // Checked before anything is sized by them or any image is opened.
  if (!ShardMap::ValidNumShards(num_shards)) {
    throw SnapshotError(SnapshotErrorCode::kCorrupt,
                        path + ": num_shards " + std::to_string(num_shards) +
                            " is not a power of two in [1, 2^20]");
  }
  if (universe_bound > std::numeric_limits<Elem>::max()) {
    throw SnapshotError(SnapshotErrorCode::kCorrupt,
                        path + ": universe_bound " +
                            std::to_string(universe_bound) +
                            " exceeds the 32-bit id space");
  }

  std::vector<Engine> engines;
  engines.reserve(num_shards);
  std::vector<std::vector<PreparedSet>> per_shard_sets;
  per_shard_sets.reserve(num_shards);
  std::vector<SnapshotInfo> infos;
  infos.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    LoadedSnapshot loaded =
        Engine::LoadSnapshot(ShardPath(path, s), options.snapshot);
    if (loaded.sets.size() != num_sets) {
      throw SnapshotError(
          SnapshotErrorCode::kCorrupt,
          ShardPath(path, s) + ": expected " + std::to_string(num_sets) +
              " sets per the manifest, found " +
              std::to_string(loaded.sets.size()));
    }
    engines.push_back(std::move(loaded.engine));
    per_shard_sets.push_back(std::move(loaded.sets));
    infos.push_back(std::move(loaded.info));
  }

  ShardedEngineOptions engine_options;
  engine_options.num_shards = num_shards;
  engine_options.universe_bound = static_cast<Elem>(universe_bound);
  if (!engines.empty()) {
    engine_options.spec = engines.front().spec();
    engine_options.seed = engines.front().seed();
  }
  engine_options.validation = options.snapshot.validation;
  engine_options.num_threads = options.num_threads;
  engine_options.max_in_flight = options.max_in_flight;
  engine_options.default_deadline = options.default_deadline;

  auto tag = std::make_shared<const int>(0);
  std::vector<ShardedSet> sets;
  sets.reserve(num_sets);
  for (std::size_t j = 0; j < num_sets; ++j) {
    std::vector<PreparedSet> shards;
    shards.reserve(num_shards);
    std::size_t total = 0;
    for (std::size_t s = 0; s < num_shards; ++s) {
      total += per_shard_sets[s][j].size();
      shards.push_back(std::move(per_shard_sets[s][j]));
    }
    sets.push_back(ShardedSet(tag, std::move(shards), total));
  }

  return LoadedShardedSnapshot{
      ShardedEngine(std::move(engine_options), std::move(engines), tag),
      std::move(sets), std::move(infos)};
}

}  // namespace fsi
