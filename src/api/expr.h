// Boolean query algebra over prepared sets: fsi::Expr.
//
// The flat conjunctive fsi::Query covers the paper's core problem — the
// intersection of k preprocessed sets — but real workloads (shopping
// filters, keyword search) are boolean *expressions*.  Expr extends the
// query surface to an expression tree:
//
//   fsi::Engine engine;                          // any engine
//   fsi::PreparedSet a = engine.Prepare(...);    // leaves are prepared sets
//   fsi::PreparedSet b = engine.Prepare(...);
//   fsi::PreparedSet c = engine.Prepare(...);
//
//   fsi::Expr e = fsi::Expr::Diff(
//       fsi::Expr::And({fsi::Expr::Set(a), fsi::Expr::Set(b)}),
//       fsi::Expr::Set(c));                      // (a ∩ b) \ c
//   fsi::ElemList r = engine.Query(e).Materialize();
//
// Node types (the grammar; docs/ALGEBRA.md walks the rewrites):
//   Set(s)            — leaf: one PreparedSet (immutable or mutable)
//   And({e...})       — intersection of >= 1 subexpressions
//   Or({e...})        — union of >= 1 subexpressions
//   Diff(e, f)        — difference e \ f (the Not against an enclosing
//                       AND context: And({x, Diff(u, y)}) is x ∧ ¬y
//                       relative to u)
//   AtLeast(t, {e...})— elements in at least t of the k subexpressions
//                       (t = k is And, t = 1 is Or; the Section 6
//                       t-threshold machinery, core/threshold.h, serves
//                       the all-leaf case on grouped structures)
//   None()            — the constant empty set (absorbing element)
//
// Engine::Query(expr) first *optimizes* the tree (OptimizeExpr below):
// And/Or flattening and idempotent dedup, difference pushdown
// (And({x, Diff(a,b)}) -> Diff(And({x,a}), b)), threshold degeneration
// (AtLeast(k,·) -> And, AtLeast(1,·) -> Or, t > k -> None), and constant
// folding.  Evaluation then runs bottom-up with smallest-first ordering
// and density-corrected cardinality estimates per node; a conjunction of
// leaves, mutable or not, runs through the flat queries' conjunction
// executor (on a planner engine: the full per-step cost-model plan; a
// mutable leaf's delta is folded into the result, never merged into a
// copy of the leaf), and all-leaf AtLeast nodes on grouped structures run
// the count-merge of core/threshold.h.  Query::Explain() renders the
// chosen tree.
//
// Memoization: an Engine owns an ExprCache (EngineOptions::
// expr_cache_bytes) memoizing subexpression results keyed on the node's
// structural fingerprint — node kinds, thresholds and leaf handle ids,
// with each *mutable* leaf's version() mixed in, so Insert/Erase/Compact
// invalidate every cached result over that leaf by changing its key.
// Hot subtrees shared across queries (skewed traffic) are then computed
// once; a cache hit is bitwise-identical to a cold evaluation because
// every evaluation of a node key sees the same leaf snapshots.
//
// Thread-safety matches the engine layer: a const Engine, its
// PreparedSets and Exprs may be shared across threads (Expr is an
// immutable value; copies share nodes), the cache is internally
// synchronized, and each query terminal observes one consistent snapshot
// per mutable leaf.
//
// Arity note: expression queries have no max_query_sets() limit — a
// conjunction wider than the engine algorithm's native arity simply
// evaluates as a pairwise chain.

#ifndef FSI_API_EXPR_H_
#define FSI_API_EXPR_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "core/delta_set.h"

namespace fsi {

/// The node types of the boolean algebra.
enum class ExprKind {
  kSet,      // leaf: one PreparedSet
  kAnd,      // intersection
  kOr,       // union
  kDiff,     // difference (exactly two children: include \ exclude)
  kAtLeast,  // t-of-k threshold
  kNone,     // constant empty set
};

std::string_view ToString(ExprKind kind);

class Expr;

/// One immutable tree node.  Public so the evaluator and tests can walk
/// trees; construct through the Expr builders, which validate shape.
struct ExprNode {
  ExprKind kind = ExprKind::kNone;
  /// And/Or/AtLeast: >= 1 children; Diff: exactly {include, exclude}.
  std::vector<Expr> children;
  /// AtLeast only: the threshold t, 1 <= t <= children.size().
  std::size_t threshold = 0;
  /// kSet only: the leaf handle (shared ownership of the structure).
  PreparedSet leaf;
};

/// A value-semantic boolean expression over prepared sets.  Immutable;
/// copies share the underlying nodes, so subtrees can be reused across
/// many queries (which is exactly what the memoization layer rewards).
/// A default-constructed Expr is an empty handle, rejected by
/// Engine::Query — distinct from None(), the valid constant-empty set.
class Expr {
 public:
  Expr() = default;

  /// Leaf over one prepared set (immutable or mutable handle; copies of
  /// the handle share the underlying set).  Throws std::invalid_argument
  /// on an empty handle.
  static Expr Set(const PreparedSet& set);

  /// Intersection of >= 1 subexpressions.  Throws on zero children or
  /// any empty-handle child.
  static Expr And(std::vector<Expr> children);

  /// Union of >= 1 subexpressions.
  static Expr Or(std::vector<Expr> children);

  /// Difference include \ exclude.
  static Expr Diff(Expr include, Expr exclude);

  /// Elements present in at least `threshold` of the children (counted
  /// with multiplicity: a child listed twice contributes twice).  Throws
  /// on threshold == 0 or zero children; threshold > children.size() is
  /// a valid (always-empty) expression.
  static Expr AtLeast(std::size_t threshold, std::vector<Expr> children);

  /// The constant empty set.
  static Expr None();

  bool empty_handle() const { return node_ == nullptr; }
  ExprKind kind() const { return node_->kind; }
  std::size_t num_children() const { return node_->children.size(); }
  const Expr& child(std::size_t i) const { return node_->children[i]; }
  std::size_t threshold() const { return node_->threshold; }
  const PreparedSet& leaf() const { return node_->leaf; }
  /// Leaves in the whole tree (a shared subtree counts once per use).
  std::size_t num_leaves() const;
  /// Grammar rendering, e.g. "diff(and(set, set), set)".
  std::string ToString() const;

  /// The underlying node (never null for a non-empty handle).
  const ExprNode* node() const { return node_.get(); }
  const std::shared_ptr<const ExprNode>& shared_node() const { return node_; }

 private:
  explicit Expr(std::shared_ptr<const ExprNode> node)
      : node_(std::move(node)) {}

  std::shared_ptr<const ExprNode> node_;
};

/// Operator sugar: a & b, a | b, a - b.
inline Expr operator&(const Expr& a, const Expr& b) {
  return Expr::And({a, b});
}
inline Expr operator|(const Expr& a, const Expr& b) {
  return Expr::Or({a, b});
}
inline Expr operator-(const Expr& a, const Expr& b) {
  return Expr::Diff(a, b);
}

/// The algebraic rewrite pass Engine::Query(expr) applies (exposed for
/// tests and Explain).  Semantics-preserving on the *effective* sets:
///  * And/Or flattening (nested same-kind nodes fold into the parent)
///    and idempotent dedup (structurally identical children collapse);
///  * constant folding: an empty immutable leaf becomes None; None
///    absorbs And, drops out of Or, and short-circuits Diff;
///  * difference pushdown: And({x.., Diff(a,b), ..}) ->
///    Diff(And({x..,a,..}), Or({b..})) and Diff(Diff(a,b),c) ->
///    Diff(a, Or({b,c})) — one subtraction at the top instead of one
///    per branch;
///  * threshold degeneration: AtLeast(t,{e...k}) with t == k -> And,
///    t == 1 -> Or, t > k -> None; empty children leave the count.
/// Mutable leaves are never constant-folded (their size can change).
Expr OptimizeExpr(const Expr& expr);

/// Counters of one ExprCache (Engine::expr_cache()->stats()).
struct ExprCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
};

/// A node's structural fingerprint: 128 bits over (kind, threshold,
/// children fingerprints, leaf handle id, mutable-leaf version).
struct ExprKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  friend bool operator==(const ExprKey&, const ExprKey&) = default;
};

/// The subexpression result cache: an LRU over (fingerprint -> sorted
/// result list), byte-bounded, shared by every query of an Engine (and
/// its copies).  Internally synchronized — BatchRunner workers hit it
/// concurrently.  Invalidation is structural: a mutable leaf's version()
/// is part of every enclosing fingerprint, so mutations simply stop the
/// stale entries being looked up and the LRU ages them out.
///
/// Leaves are keyed by their never-reused handle id, so an entry holds
/// nothing but its result: dropping a set frees its structure at once,
/// and the entries over it, which no later set can match, age out too.
class ExprCache {
 public:
  explicit ExprCache(std::size_t max_bytes) : max_bytes_(max_bytes) {}

  /// The cached result for `key`, or null.  Counts a hit or miss.
  std::shared_ptr<const ElemList> Lookup(const ExprKey& key);

  /// Inserts (or refreshes) `key`.  Evicts LRU entries past max_bytes.
  void Insert(const ExprKey& key, std::shared_ptr<const ElemList> elems);

  ExprCacheStats stats() const;
  void Clear();
  std::size_t max_bytes() const { return max_bytes_; }

 private:
  struct Entry {
    ExprKey key;
    std::shared_ptr<const ElemList> elems;
    std::size_t bytes = 0;
  };
  struct KeyHash {
    std::size_t operator()(const ExprKey& k) const {
      return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ULL));
    }
  };

  const std::size_t max_bytes_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<ExprKey, std::list<Entry>::iterator, KeyHash> index_;
  std::size_t bytes_ = 0;
  ExprCacheStats stats_;
};

namespace expr_internal {

/// Evaluates an (optimized) tree bottom-up into `*out`, sorted ascending.
/// Takes one consistent snapshot per mutable leaf at entry.  Returns the
/// elements the leaves hold (a mutable leaf's base plus delta) — the
/// QueryStats::elements_scanned of the run.
std::size_t Evaluate(const ExprNode& root, const EvalContext& ctx,
                     ElemList* out);

/// The inputs of one conjunction run: the structure to intersect per input
/// and, for a mutable input, the snapshot that structure belongs to.
struct ConjunctionInputs {
  ConjunctionInputs() = default;
  /// Takes one snapshot per mutable handle.
  explicit ConjunctionInputs(std::span<const PreparedSet> leaves);

  /// Appends `leaf`; `snapshot` is the snapshot already taken of a mutable
  /// leaf (null for an immutable one).
  void Add(const PreparedSet& leaf, const MutableSetState* snapshot);
  /// Sets the structural QueryStats fields: elements_scanned (a mutable
  /// input counts base plus delta) and groups_probed.
  void FillScanStats(QueryStats* stats) const;

  std::vector<const PreprocessedSet*> views;
  /// Index-aligned with `views` (null for immutable inputs); empty when no
  /// input is mutable.
  std::vector<const MutableSetState*> snapshots;
  /// The snapshots the constructor took.
  std::vector<MutableSetState> owned;
};

/// The name of the plan step that stands for the delta fixup.
inline constexpr std::string_view kDeltaMergeStep = "DeltaMerge";

/// The plan of a conjunction: the planner's Plan() (PlanExplicit's
/// pseudo-plan on explicit engines) over `views`, plus a trailing
/// kDeltaMergeStep step carrying the fixup's predicted cost when any of
/// `snapshots` has a pending delta.
QueryPlan PlanConjunction(const EvalContext& ctx,
                          std::span<const PreprocessedSet* const> views,
                          std::span<const MutableSetState* const> snapshots);

/// The one conjunction executor, behind flat queries and every Expr And
/// whose children are leaves: intersects `views` under `plan` (from
/// PlanConjunction over the same inputs; explicit engines run their
/// algorithm directly), then folds in each snapshot's delta — drop the
/// tombstoned elements, admit the insert-buffer elements present in every
/// effective set, merge them in (core/delta_set.h).  `ordered` false
/// leaves the result in unspecified order.
void ExecuteConjunction(const EvalContext& ctx,
                        std::span<const PreprocessedSet* const> views,
                        std::span<const MutableSetState* const> snapshots,
                        const QueryPlan& plan, bool ordered, ElemList* out);

/// The Explain() walk: cardinality estimates per node, algorithm choice
/// annotations, and the rendered tree (QueryPlan::tree) — no execution.
QueryPlan PlanExpr(const ExprNode& root, const EvalContext& ctx);

}  // namespace expr_internal

}  // namespace fsi

#endif  // FSI_API_EXPR_H_
