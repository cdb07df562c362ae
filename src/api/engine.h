// The production entry point: Engine, PreparedSet and Query.
//
// The paper's framework splits a one-time preprocessing stage from an
// online stage intersecting k preprocessed sets.  The raw algorithm API
// (core/algorithm.h) exposes that split literally — `PreprocessedSet*`
// spans, downcasts inside each algorithm, and non-owning lifetime rules.
// This layer wraps it in owning, checked handles:
//
//   fsi::Engine engine("RanGroupScan:m=2");          // registry spec
//   fsi::PreparedSet a = engine.Prepare(list_a);     // owns its structure
//   fsi::PreparedSet b = engine.Prepare(list_b);
//   fsi::ElemList both =
//       engine.Query({&a, &b}).Materialize();        // sorted result
//   std::size_t n = engine.Query({&a, &b}).Limit(10).Count();
//   engine.Query({&a, &b}).Unordered().Visit([](fsi::Elem e) { ... });
//
// Guarantees the raw API cannot give:
//  * A PreparedSet keeps its algorithm alive (shared ownership), so the
//    structure can never outlive the hash functions it was built with.
//  * Using a PreparedSet with an Engine other than the one that built it
//    is a checked std::invalid_argument, not undefined behaviour — the
//    old `static_cast` downcast footgun.
//  * Queries exceeding the algorithm's arity limit (IntGroup: k == 2)
//    are rejected up front.
//  * Input validation is governed by an explicit ValidationPolicy
//    (full O(n) checking on by default in Debug, off in Release).
//
// Thread-safety: a const Engine and its PreparedSets may be shared across
// threads.  Query objects are per-thread values: build one per query (or
// reuse one per thread — terminals may be invoked repeatedly).
// Mutable sets (Engine::PrepareMutable) additionally allow concurrent
// Insert/Erase while readers run lock-free: every query terminal takes one
// consistent snapshot of each mutable input when it starts, plans against
// it and folds the snapshot's delta into the result — the same executor
// for flat queries and for conjunctions inside an Expr (see
// docs/ARCHITECTURE.md, "Mutability & epochs").

#ifndef FSI_API_ENGINE_H_
#define FSI_API_ENGINE_H_

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/algorithm.h"
#include "core/cost.h"

namespace fsi {

class PlannerAlgorithm;  // the cost-model planner (api/planner.h)
class MutableSetCore;    // the mutable-set runtime (api/epoch.h)
struct MutableSetState;  // one published mutable-set version (core/delta_set.h)
class Expr;              // boolean expression tree (api/expr.h)
struct ExprNode;
class ExprCache;  // memoized subexpression results (api/expr.h)

namespace expr_internal {
struct Access;  // the expression evaluator's keyhole (api/expr.cc)

/// What query execution needs from the engine, all borrowed (the Query
/// holding it owns shared references).
struct EvalContext {
  const IntersectionAlgorithm* algorithm = nullptr;
  const PlannerAlgorithm* planner = nullptr;  // null on explicit engines
  ExprCache* cache = nullptr;                 // null disables memoization
  StepCostFn cost_hook = nullptr;  // explicit engines' registry cost hook
};
}  // namespace expr_internal

namespace storage {
class SnapshotWriter;  // snapshot container (storage/snapshot.h)
class SnapshotReader;
class MappedFile;      // zero-copy backing (storage/mapped_file.h)
}  // namespace storage

/// Construction options for Engine::PrepareMutable — the compaction
/// policy of one mutable set.  Compaction merges the delta tier (insert
/// buffer + erase tombstones, core/delta_set.h) back into the base
/// structure; until it runs, every query pays a fixup pass proportional
/// to the delta size.
struct MutableSetOptions {
  /// Compact when |delta| >= compact_fill * |base| ...
  double compact_fill = 0.10;
  /// ... but never before |delta| reaches this floor (tiny sets would
  /// otherwise recompact on every mutation).
  std::size_t compact_min = 1024;
  /// true: rebuilds run on the process-wide background worker and swap in
  /// atomically (writers never block on a rebuild).  false: no automatic
  /// compaction — call PreparedSet::Compact() explicitly.
  bool background_compaction = true;
};

/// True when `compact_fill` is a usable compaction policy: finite and
/// positive.  PrepareMutable rejects any other value.
inline bool ValidCompactFill(double compact_fill) {
  return std::isfinite(compact_fill) && compact_fill > 0.0;
}

/// Governs whether Prepare() runs the full O(n) sorted/duplicate-free
/// input validation.  kDefault resolves per build type: enabled in Debug,
/// disabled in Release (where validating every posting list on index
/// build would cost a full extra pass per set).
enum class ValidationPolicy {
  kDefault,
  kFull,  // always validate, any build type
  kOff,   // never validate (caller guarantees sorted, duplicate-free input)
};

/// Resolves a policy against the build type.
constexpr bool ValidationEnabled(ValidationPolicy policy) {
#ifdef NDEBUG
  return policy == ValidationPolicy::kFull;
#else
  return policy != ValidationPolicy::kOff;
#endif
}

/// Per-query measurements, available from Query::stats() after a terminal
/// (Materialize / Count / Visit / Execute) has run.
struct QueryStats {
  /// Number of input sets (k).
  std::size_t num_sets = 0;
  /// Total elements across the input structures — the data volume the
  /// query touches in the worst case.
  std::size_t elements_scanned = 0;
  /// Groups in the coarsest grouped input structure — an upper bound on
  /// the group combinations the randomized-partition algorithms probe.
  /// 0 when the algorithm builds no group decomposition.
  std::uint64_t groups_probed = 0;
  /// Result-set size (after any Limit).
  std::size_t result_size = 0;
  /// Wall time of the last terminal, in microseconds.
  double wall_micros = 0.0;
  /// Cost-model prediction for this query, in microseconds (valid
  /// immediately, like the structural fields).  Filled by the planner's
  /// calibrated model on planner engines, by the algorithm's own cost hook
  /// with the built-in constants on explicit-spec engines, and 0 when the
  /// algorithm publishes no cost model.  Compare against wall_micros to
  /// judge the model (see Query::Explain and docs/PLANNER.md).
  double predicted_micros = 0.0;
};

struct QueryPlan;  // the chosen execution plan (api/planner.h)

/// A value-semantic handle owning one preprocessed set together with a
/// shared reference to the algorithm that built it.  Copyable (copies
/// share the underlying structure); cheap to move.  A default-constructed
/// handle is empty and rejected by Engine::Query.
///
/// Handles come in two flavours:
///  * Engine::Prepare builds an *immutable* set — the original
///    build-once/read-only structure; Insert/Erase throw.
///  * Engine::PrepareMutable builds a *mutable* set: Insert/Erase run
///    concurrently with lock-free readers (queries, Contains), absorbing
///    into a sorted delta tier that background compaction periodically
///    merges back into the base structure (see docs/ARCHITECTURE.md,
///    "Mutability & epochs").  Copies share the same mutable set.
class PreparedSet {
 public:
  PreparedSet() = default;

  bool empty_handle() const { return set_ == nullptr && core_ == nullptr; }
  /// Whether the handle supports Insert/Erase (built by PrepareMutable).
  bool is_mutable() const { return core_ != nullptr; }
  /// Number of elements in the underlying (effective) set.
  std::size_t size() const;
  /// Structure footprint in 64-bit words (including any delta tier).
  std::size_t SizeInWords() const;
  /// Name of the algorithm that built the structure ("" when empty).
  std::string_view algorithm_name() const {
    return algorithm_ ? algorithm_->name() : std::string_view();
  }
  /// Escape hatch to the raw structure.  nullptr when empty — and for
  /// mutable sets, whose current structure is only reachable through a
  /// consistent snapshot (the raw pointer could be compacted away at any
  /// moment).
  const PreprocessedSet* raw() const { return set_.get(); }
  /// True when this set holds the block-compressed representation (picked
  /// by EngineOptions::space_budget_bytes on a planner engine).  Mutable
  /// handles are never compressed.
  bool compressed() const;

  // Mutation API — mutable handles only; the others throw
  // std::logic_error.  All of these are safe to call concurrently with
  // any number of readers (queries over this set, Contains) and with each
  // other; mutations on one set serialize on an internal writer mutex.

  /// Adds `value` to the set; returns false when already present.
  bool Insert(Elem value);
  /// Removes `value` from the set; returns false when not present.
  bool Erase(Elem value);
  /// Lock-free membership probe of the effective set.
  bool Contains(Elem value) const;
  /// |insert buffer| + |erase tombstones| pending against the base.
  std::size_t delta_size() const;
  /// Monotone version counter (bumped by every mutation and compaction).
  std::uint64_t version() const;
  /// Synchronously merges the delta tier into a rebuilt base structure.
  void Compact();
  /// Blocks until no background compaction is scheduled or running for
  /// this set.
  void WaitForCompaction() const;
  /// A consistent copy of the published state — structure, base view and
  /// delta — that owns what it references (inspection: footprint, and
  /// where a loaded set's arrays live).
  MutableSetState MutableSnapshot() const;

 private:
  friend class Engine;
  friend struct expr_internal::Access;
  PreparedSet(std::shared_ptr<const IntersectionAlgorithm> algorithm,
              std::shared_ptr<const PreprocessedSet> set);
  PreparedSet(std::shared_ptr<const IntersectionAlgorithm> algorithm,
              std::shared_ptr<MutableSetCore> core);

  /// Throws std::logic_error unless is_mutable().
  void RequireMutable(const char* operation) const;

  std::shared_ptr<const IntersectionAlgorithm> algorithm_;
  std::shared_ptr<const PreprocessedSet> set_;  // immutable handles
  std::shared_ptr<MutableSetCore> core_;        // mutable handles
  /// Process-unique, never reused, shared by copies: the set's identity in
  /// Expr fingerprints (api/expr.h).  0 for a default-constructed handle.
  std::uint64_t id_ = 0;
};

/// A fluent, self-contained query: holds shared ownership of everything it
/// needs, so it stays valid even if the Engine and the PreparedSet handles
/// it was built from are destroyed first.
///
/// Builders: Unordered(), Limit(n), CountOnly().  Terminals: Materialize()
/// (sorted unless Unordered), ExecuteInto() (allocation-free hot path),
/// Count(), Visit(fn), Execute().  Terminals may be called repeatedly;
/// each run refreshes stats().  Every terminal ends in ExecuteInto, which
/// runs a flat query through the conjunction executor (api/expr.h) —
/// reusing the build-time plan when every input is immutable, otherwise
/// snapshotting and planning the mutable inputs per run and folding their
/// deltas in — and an expression query through the evaluator.
class Query {
 public:
  /// Result in unspecified order — skips the O(r log r) sort the paper's
  /// partition-based algorithms would otherwise pay (Figure 5 regime).
  Query& Unordered() {
    ordered_ = false;
    return *this;
  }
  /// Keep at most `n` result elements (the first n in document-id order
  /// for ordered queries; an arbitrary n otherwise).
  Query& Limit(std::size_t n) {
    limit_ = n;
    return *this;
  }
  /// Declares that only stats().result_size is wanted; Execute() then
  /// discards elements.  Equivalent shortcut: Count().
  Query& CountOnly() {
    count_only_ = true;
    return *this;
  }

  /// Runs the intersection and returns the result elements.
  ElemList Materialize();

  /// Hot path: runs the intersection into `*out` (cleared first) and
  /// returns the stats.  No allocation beyond `out`'s capacity growth.
  QueryStats ExecuteInto(ElemList* out);

  /// Count-only sink: the result-set size (after Limit) without handing
  /// out elements; reuses an internal scratch buffer across runs.
  std::size_t Count();

  /// Visitor sink: invokes `visit(Elem)` per result element without
  /// materializing a caller-owned vector.  A visitor returning bool can
  /// stop early by returning false.  Returns the number visited.
  template <typename Visitor>
  std::size_t Visit(Visitor&& visit) {
    ExecuteInto(&scratch_);
    std::size_t visited = 0;
    for (Elem e : scratch_) {
      if constexpr (std::is_convertible_v<
                        decltype(visit(std::declval<Elem>())), bool>) {
        ++visited;
        if (!visit(e)) break;
      } else {
        visit(e);
        ++visited;
      }
    }
    return visited;
  }

  /// Generic terminal for fluent chains ending in CountOnly(): runs the
  /// query and returns the stats.
  QueryStats Execute();

  /// Stats of the most recent terminal run (structural fields — num_sets,
  /// elements_scanned, groups_probed, predicted_micros — are valid
  /// immediately).
  const QueryStats& stats() const { return stats_; }

  /// The chosen execution plan, without running the query: set order,
  /// algorithm per step, and the cost model's per-step predictions.  On a
  /// planner engine (the default) this is the full cost-model plan; on an
  /// explicit-spec engine it is a single-algorithm pseudo-plan carrying
  /// the descriptor's cost prediction when one is published.
  QueryPlan Explain() const;

 private:
  friend class Engine;
  /// A flat conjunction over `inputs`.  When every input is immutable,
  /// `sets` holds their structures and `plan` the build-time plan; both
  /// are empty otherwise.
  Query(std::shared_ptr<const IntersectionAlgorithm> algorithm,
        const expr_internal::EvalContext& ctx, std::vector<PreparedSet> inputs,
        std::vector<const PreprocessedSet*> sets,
        std::shared_ptr<const QueryPlan> plan, QueryStats base)
      : algorithm_(std::move(algorithm)),
        ctx_(ctx),
        inputs_(std::move(inputs)),
        sets_(std::move(sets)),
        plan_(std::move(plan)),
        stats_(base) {}

  /// An expression query (Engine::Query(const Expr&), api/expr.cc):
  /// evaluates the optimized tree instead of a flat conjunction.
  Query(std::shared_ptr<const IntersectionAlgorithm> algorithm,
        const expr_internal::EvalContext& ctx,
        std::shared_ptr<const ExprNode> expr, std::shared_ptr<ExprCache> cache,
        QueryStats base)
      : algorithm_(std::move(algorithm)),
        ctx_(ctx),
        expr_(std::move(expr)),
        expr_cache_(std::move(cache)),
        stats_(base) {}

  std::shared_ptr<const IntersectionAlgorithm> algorithm_;
  expr_internal::EvalContext ctx_;  // borrows algorithm_ and expr_cache_
  /// Flat queries: the input handles; when all are immutable, their
  /// structures and the plan computed once at build (null when any input
  /// is mutable — those queries re-plan per run against a fresh snapshot).
  std::vector<PreparedSet> inputs_;
  std::vector<const PreprocessedSet*> sets_;
  std::shared_ptr<const QueryPlan> plan_;
  /// Expression queries: the optimized tree and the engine's
  /// subexpression cache.  Null for flat queries.
  std::shared_ptr<const ExprNode> expr_;
  std::shared_ptr<ExprCache> expr_cache_;
  bool ordered_ = true;
  std::size_t limit_ = SIZE_MAX;
  bool count_only_ = false;
  ElemList scratch_;  // reused by the Count/Visit/Execute sinks
  QueryStats stats_;
};

/// Construction options for Engine.
struct EngineOptions {
  std::uint64_t seed = kDefaultAlgorithmSeed;
  ValidationPolicy validation = ValidationPolicy::kDefault;
  /// Byte budget of the expression-query memoization cache (api/expr.h):
  /// subexpression results keyed on structural fingerprints, shared by
  /// every query of this engine and its copies.  0 disables memoization.
  std::size_t expr_cache_bytes = 16u << 20;
  /// The space-budget dial (planner engines only; setting it on an
  /// explicit-spec engine throws std::invalid_argument).  0 — the default —
  /// means unlimited: every Prepare builds the fast two-structure
  /// representation.  A finite budget caps the total footprint of this
  /// engine's prepared structures (shared across Engine copies): Prepare
  /// keeps building uncompressed while the running total fits, then
  /// switches to the ~4x-smaller compressed block representation
  /// (docs/COMPRESSION.md); PrepareBatch instead flips the sets with the
  /// best bytes-saved-per-predicted-microsecond greedily until the batch
  /// fits.  Results are bitwise identical either way.
  std::size_t space_budget_bytes = 0;
  /// Hot/small carve-out for the dial: sets smaller than this are always
  /// kept uncompressed (compression saves little absolute space, and a
  /// small set is the one a query starts from: compressed, it must be
  /// decoded whole instead of read in place).  Ignored when
  /// space_budget_bytes == 0.
  std::size_t min_compress_size = 1024;
};

/// Options for Engine::LoadSnapshot.
struct SnapshotLoadOptions {
  ValidationPolicy validation = ValidationPolicy::kDefault;
  /// Verify the per-section CRC64s (one linear pass over the file).  The
  /// header checksum is always verified.
  bool verify_checksums = true;
  /// Compaction policy applied to sets loaded as mutable (the snapshot
  /// stores elements, not policy; InvertedIndex::Open threads its saved
  /// policy through here).
  MutableSetOptions mutable_options = {};
};

/// What Engine::LoadSnapshot did — load mode, byte counts, and how each
/// set came back (reported by intersect_cli --stats).
struct SnapshotInfo {
  std::uint32_t version_major = 0;
  std::uint32_t version_minor = 0;
  /// Registry spec the snapshot was saved with (and the loaded engine
  /// reconstructed from).
  std::string spec;
  std::uint64_t seed = 0;
  /// "mmap" (pages lazily, zero-copy) or "read" (heap fallback).
  std::string load_mode;
  /// Size of the mapping (the whole snapshot file).
  std::size_t mapped_bytes = 0;
  /// Base address of the mapping — lets callers (and tests) verify that
  /// loaded structure spans alias it.
  const void* map_base = nullptr;
  std::size_t sets_total = 0;
  /// Sets whose structure spans alias the mapping directly (no per-element
  /// copy or parse).  Includes mutable sets restored from a flat layout,
  /// which are also counted in sets_mutable.
  std::size_t sets_zero_copy = 0;
  /// Sets stored as raw elements (no flat structure layout registered for
  /// their representation) and re-preprocessed on load.
  std::size_t sets_rebuilt = 0;
  /// Sets restored in the block-compressed representation (space-budget
  /// engines; storage section kSectionCompressed).
  std::size_t sets_compressed = 0;
  /// Mutable sets, loaded with an empty delta: zero-copy (and counted in
  /// sets_zero_copy too) when the record carries a flat layout whose
  /// elements the base can view, re-prepared from the elements otherwise.
  std::size_t sets_mutable = 0;
  /// calibration_source() of the loaded planner ("" for non-planner
  /// engines or snapshots without a calibration section).
  std::string calibration_source;
};

/// The result of Engine::LoadSnapshot: the reconstructed engine, its
/// prepared sets (same order as at save), and the load report.
struct LoadedSnapshot;

/// A thread-safe intersection engine: one algorithm instance (built from a
/// registry spec or adopted), input validation policy, prepared-set
/// construction and query building.  Copyable — copies share the same
/// algorithm instance, so their PreparedSets are interchangeable.
class Engine {
 public:
  /// Zero-config: the cost-model planner (api/planner.h) picks the
  /// algorithm per query.  Equivalent to Engine("Planner").
  Engine() : Engine("Planner") {}

  /// Builds the engine from a registry spec, e.g. "Hybrid" or
  /// "RanGroupScan:m=2,w=4".  Throws std::invalid_argument for unknown
  /// names or malformed options.
  explicit Engine(std::string_view spec, EngineOptions options = {});

  /// Adopts an already-constructed algorithm (e.g. one with custom
  /// Options structs not expressible as a spec string).
  explicit Engine(std::unique_ptr<IntersectionAlgorithm> algorithm,
                  EngineOptions options = {});

  /// Preprocesses one sorted, duplicate-free set into an owning handle.
  /// Runs full input validation when the ValidationPolicy enables it and
  /// throws std::invalid_argument on invalid input.
  PreparedSet Prepare(std::span<const Elem> set) const;
  PreparedSet Prepare(std::initializer_list<Elem> set) const {
    return Prepare(std::span<const Elem>(set.begin(), set.size()));
  }

  /// Preprocesses one sorted, duplicate-free set into a *mutable* handle:
  /// PreparedSet::Insert/Erase then run concurrently with lock-free
  /// readers, and background compaction keeps the structure close to its
  /// freshly-prepared form (see MutableSetOptions).  Queries mixing
  /// mutable and immutable sets are fine.  When the structure keeps its
  /// sorted elements (the planner, the plain-array baselines) that array
  /// doubles as the base for delta merging, so the set costs what
  /// Prepare() costs plus its delta; other structures retain one extra
  /// copy of the elements.
  PreparedSet PrepareMutable(std::span<const Elem> set,
                             MutableSetOptions options = {}) const;
  PreparedSet PrepareMutable(std::initializer_list<Elem> set,
                             MutableSetOptions options = {}) const {
    return PrepareMutable(std::span<const Elem>(set.begin(), set.size()),
                          options);
  }

  /// Prepares many sets at once, applying the space-budget dial globally:
  /// when the whole batch fits the budget uncompressed nothing changes;
  /// otherwise the sets with the best bytes-saved-per-predicted-
  /// microsecond are flipped to the compressed representation, greedily,
  /// until the batch fits (or every eligible set is compressed).  With no
  /// budget (or on a non-planner engine) this is just a Prepare loop.
  /// InvertedIndex::Finalize builds its postings through this.
  std::vector<PreparedSet> PrepareBatch(std::span<const ElemList> lists) const;

  /// The dial's settings and the running footprint it has admitted, in
  /// bytes (0 budget = unlimited; the running total is shared with Engine
  /// copies).
  std::size_t space_budget_bytes() const { return space_budget_bytes_; }
  std::size_t SpaceUsedBytes() const {
    return space_used_ ? static_cast<std::size_t>(space_used_->load()) : 0;
  }

  /// Builds a query over prepared sets.  Every handle must be non-empty
  /// and built by this engine (or a copy of it); violations throw
  /// std::invalid_argument.  An empty query materializes to an empty
  /// result.
  fsi::Query Query(std::initializer_list<const PreparedSet*> sets) const;
  fsi::Query Query(std::span<const PreparedSet* const> sets) const;
  fsi::Query Query(std::span<const PreparedSet> sets) const;

  /// Builds a query over a boolean expression tree (api/expr.h): And/Or/
  /// Diff/AtLeast over prepared-set leaves.  The tree is optimized
  /// (OptimizeExpr) at build; every leaf must be non-empty and built by
  /// this engine.  All sinks and builders compose as with flat queries;
  /// there is no arity limit.  Defined in api/expr.cc.
  fsi::Query Query(const Expr& expr) const;

  /// Convenience one-shot: prepare and intersect plain lists.
  ElemList IntersectLists(std::span<const ElemList> lists) const;

  // Snapshot persistence (docs/PERSISTENCE.md).  SaveSnapshot serializes
  // this engine plus the given prepared sets into one versioned file;
  // LoadSnapshot mmaps such a file and reconstructs the engine and sets,
  // aliasing flat structures directly into the mapping (zero per-element
  // copies).  Planner engines stamp their calibrated cost constants into
  // the file, so loading skips the ~100 ms startup measurement.

  /// Saves this engine and `sets` (handles built by this engine; same
  /// checks as Query) to `path`.  Mutable sets are saved as their current
  /// effective element set and load back with an empty delta — zero-copy
  /// when their structure keeps its sorted elements.
  /// Throws std::invalid_argument on foreign/empty handles and
  /// storage::SnapshotError(kIo) on filesystem failure.
  void SaveSnapshot(const std::string& path,
                    std::span<const PreparedSet> sets) const;
  void SaveSnapshot(const std::string& path,
                    std::span<const PreparedSet* const> sets) const;

  /// Appends this engine's sections (engine meta, planner calibration,
  /// set table, payload) to an open writer — the composition point for
  /// containers embedding an engine image (InvertedIndex::Save).
  void WriteSnapshotSections(storage::SnapshotWriter& writer,
                             std::span<const PreparedSet* const> sets) const;

  /// Maps `path` and reconstructs the engine and its prepared sets.
  /// Throws storage::SnapshotError (typed: kIo / kBadMagic / kBadVersion /
  /// kForeignEndian / kAbiMismatch / kTruncated / kChecksum / kCorrupt) on
  /// anything malformed — a corrupt file never reaches undefined behavior.
  static LoadedSnapshot LoadSnapshot(const std::string& path,
                                     SnapshotLoadOptions options = {});

  /// The section-level load, given an already-validated reader.  `backing`
  /// keeps the mapped bytes alive and is retained by every zero-copy set;
  /// when null, the caller must keep the reader's bytes alive for the
  /// lifetime of the returned sets.
  static LoadedSnapshot LoadSnapshotSections(
      const storage::SnapshotReader& reader,
      std::shared_ptr<const storage::MappedFile> backing,
      SnapshotLoadOptions options = {});

  /// The registry spec this engine was built from (an adopted algorithm
  /// reports its name).
  const std::string& spec() const { return spec_; }
  std::uint64_t seed() const { return seed_; }

  std::string_view algorithm_name() const { return algorithm_->name(); }
  const IntersectionAlgorithm& algorithm() const { return *algorithm_; }
  /// The expression-query memoization cache (shared with Engine copies);
  /// null when EngineOptions::expr_cache_bytes == 0.
  const std::shared_ptr<ExprCache>& expr_cache() const { return expr_cache_; }
  /// Maximum query arity of the underlying algorithm.
  std::size_t max_query_sets() const { return algorithm_->max_query_sets(); }
  /// Whether Prepare() validates input (policy resolved per build type).
  bool validation_enabled() const { return validate_; }

 private:
  fsi::Query MakeQuery(std::span<const PreparedSet* const> sets) const;
  /// Resolves planner_view_ / cost_hook_ once, so building a query never
  /// takes the registry mutex.
  void ResolveCostInfo();
  /// Validates the space-budget options against the algorithm and sets up
  /// the shared footprint counter.
  void InitSpaceBudget(const EngineOptions& options);
  /// The streaming representation decision behind Prepare().
  std::unique_ptr<PreprocessedSet> PrepareStructure(
      std::span<const Elem> set) const;
  /// PrepareMutable over a structure this engine's algorithm already built
  /// (a snapshot load's view of the mapping), which must keep its sorted
  /// elements; same validation and option checks.
  PreparedSet AdoptMutable(std::shared_ptr<const PreprocessedSet> structure,
                           MutableSetOptions options) const;

  std::shared_ptr<const IntersectionAlgorithm> algorithm_;
  bool validate_;
  /// The spec/seed the engine was built from — stamped into snapshots so
  /// LoadSnapshot can reconstruct an identical engine.
  std::string spec_;
  std::uint64_t seed_ = kDefaultAlgorithmSeed;
  /// Non-null when algorithm_ is the planner (aliases algorithm_, which
  /// copies share, so the view stays valid across Engine copies).
  const PlannerAlgorithm* planner_view_ = nullptr;
  /// The algorithm's registry cost hook (null when none is published).
  StepCostFn cost_hook_ = nullptr;
  /// Memoized subexpression results for Query(const Expr&); shared across
  /// Engine copies.  Null when disabled.
  std::shared_ptr<ExprCache> expr_cache_;
  /// The space-budget dial (EngineOptions); the running footprint counter
  /// is shared across Engine copies so the budget is engine-wide.
  std::size_t space_budget_bytes_ = 0;
  std::size_t min_compress_size_ = 1024;
  std::shared_ptr<std::atomic<std::uint64_t>> space_used_;
};

struct LoadedSnapshot {
  Engine engine;
  /// Same order as passed to SaveSnapshot.
  std::vector<PreparedSet> sets;
  SnapshotInfo info;
};

}  // namespace fsi

#endif  // FSI_API_ENGINE_H_
