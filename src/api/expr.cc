#include "api/expr.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "api/epoch.h"
#include "api/planner.h"
#include "baseline/merge.h"
#include "baseline/svs.h"
#include "core/delta_set.h"
#include "core/threshold.h"
#include "simd/intersect_kernels.h"

namespace fsi {

namespace expr_internal {

/// The evaluator's keyhole into PreparedSet's private identity: its
/// handle id and the algorithm that built it.
struct Access {
  static std::uint64_t id(const PreparedSet& s) { return s.id_; }
  static const IntersectionAlgorithm* algorithm(const PreparedSet& s) {
    return s.algorithm_.get();
  }
};

}  // namespace expr_internal

namespace {

using expr_internal::Access;

std::shared_ptr<const ExprNode> MakeNode(ExprNode node) {
  return std::make_shared<const ExprNode>(std::move(node));
}

void CheckChildren(const char* builder, const std::vector<Expr>& children,
                   bool require_nonempty) {
  if (require_nonempty && children.empty()) {
    throw std::invalid_argument(std::string("Expr::") + builder +
                                ": at least one child required");
  }
  for (const Expr& c : children) {
    if (c.empty_handle()) {
      throw std::invalid_argument(std::string("Expr::") + builder +
                                  ": empty Expr handle among children");
    }
  }
}

// ---------------------------------------------------------------------------
// Structural fingerprints.
//
// splitmix64-style mixing; 128 bits as two independent chains so that a
// colliding pair would have to collide in both.  A leaf's identity is its
// handle id: process-unique and never reused, so a key over a dropped set
// can never match a set prepared after it.  Both keys come from
// Fingerprint: StructuralKey is the identity used for idempotent dedup;
// the evaluator's memoization key (Evaluator::PrepareLeaves) additionally
// mixes in every mutable leaf's snapshot version, so a mutation makes the
// old key unreachable.
// ---------------------------------------------------------------------------

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  v += 0x9e3779b97f4a7c15ULL + h;
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
  return v ^ (v >> 31);
}

ExprKey MixKey(ExprKey h, std::uint64_t v) {
  return ExprKey{Mix(h.hi, v), Mix(h.lo, v ^ 0xd6e8feb86659fd93ULL)};
}

/// The key of `n` over its kind, leaf id, threshold and its children's
/// keys, each child's from `child_key(const ExprNode*)`.
template <typename ChildKey>
ExprKey Fingerprint(const ExprNode* n, ChildKey&& child_key) {
  ExprKey key{0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL};
  key = MixKey(key, static_cast<std::uint64_t>(n->kind));
  if (n->kind == ExprKind::kSet) key = MixKey(key, Access::id(n->leaf));
  if (n->kind == ExprKind::kAtLeast) key = MixKey(key, n->threshold);
  for (const Expr& c : n->children) {
    const ExprKey ck = child_key(c.node());
    key = MixKey(MixKey(key, ck.hi), ck.lo);
  }
  return key;
}

ExprKey StructuralKey(const ExprNode* n) {
  return Fingerprint(n, StructuralKey);
}

bool StructurallyEqual(const Expr& a, const Expr& b) {
  if (a.node() == b.node()) return true;
  return StructuralKey(a.node()) == StructuralKey(b.node());
}

// ---------------------------------------------------------------------------
// The rewrite pass.  Helpers assume already-optimized inputs and return
// optimized trees, so rewrites compose without re-walking.
// ---------------------------------------------------------------------------

Expr OptimizedNode(const Expr& e);
Expr OptAnd(std::vector<Expr> children);
Expr OptOr(std::vector<Expr> children);
Expr OptDiff(Expr include, Expr exclude);
Expr OptAtLeast(std::size_t threshold, std::vector<Expr> children);

/// Order-preserving structural dedup (And/Or idempotence).
void DedupChildren(std::vector<Expr>* children) {
  std::vector<Expr> unique;
  std::vector<ExprKey> keys;
  unique.reserve(children->size());
  for (Expr& c : *children) {
    ExprKey key = StructuralKey(c.node());
    bool seen = false;
    for (const ExprKey& k : keys) {
      if (k == key) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      keys.push_back(key);
      unique.push_back(std::move(c));
    }
  }
  children->swap(unique);
}

Expr OptAnd(std::vector<Expr> children) {
  // Flatten nested Ands; None absorbs the conjunction.
  std::vector<Expr> flat;
  for (Expr& c : children) {
    if (c.kind() == ExprKind::kNone) return Expr::None();
    if (c.kind() == ExprKind::kAnd) {
      for (std::size_t i = 0; i < c.num_children(); ++i) {
        flat.push_back(c.child(i));
      }
    } else {
      flat.push_back(std::move(c));
    }
  }
  // Difference pushdown: ∩ᵢ xᵢ ∩ ∩ⱼ (aⱼ \ bⱼ)  ==  (∩ xᵢ ∩ ∩ aⱼ) \ ∪ bⱼ.
  std::vector<Expr> positives;
  std::vector<Expr> negatives;
  for (Expr& c : flat) {
    if (c.kind() == ExprKind::kDiff) {
      positives.push_back(c.child(0));
      negatives.push_back(c.child(1));
    } else {
      positives.push_back(std::move(c));
    }
  }
  // Diff includes may themselves be conjunctions — re-flatten once.
  std::vector<Expr> expanded;
  for (Expr& p : positives) {
    if (p.kind() == ExprKind::kAnd) {
      for (std::size_t i = 0; i < p.num_children(); ++i) {
        expanded.push_back(p.child(i));
      }
    } else {
      expanded.push_back(std::move(p));
    }
  }
  DedupChildren(&expanded);
  Expr conjunction =
      expanded.size() == 1 ? std::move(expanded[0]) : Expr::And(expanded);
  if (negatives.empty()) return conjunction;
  return OptDiff(std::move(conjunction), OptOr(std::move(negatives)));
}

Expr OptOr(std::vector<Expr> children) {
  std::vector<Expr> flat;
  for (Expr& c : children) {
    if (c.kind() == ExprKind::kNone) continue;  // ∅ drops out of a union
    if (c.kind() == ExprKind::kOr) {
      for (std::size_t i = 0; i < c.num_children(); ++i) {
        flat.push_back(c.child(i));
      }
    } else {
      flat.push_back(std::move(c));
    }
  }
  if (flat.empty()) return Expr::None();
  DedupChildren(&flat);
  if (flat.size() == 1) return flat[0];
  return Expr::Or(std::move(flat));
}

Expr OptDiff(Expr include, Expr exclude) {
  if (include.kind() == ExprKind::kNone) return Expr::None();
  if (exclude.kind() == ExprKind::kNone) return include;
  if (StructurallyEqual(include, exclude)) return Expr::None();
  if (include.kind() == ExprKind::kDiff) {
    // (a \ b) \ c == a \ (b ∪ c): one subtraction at the top.
    Expr a = include.child(0);
    Expr merged = OptOr({include.child(1), std::move(exclude)});
    return OptDiff(std::move(a), std::move(merged));
  }
  return Expr::Diff(std::move(include), std::move(exclude));
}

Expr OptAtLeast(std::size_t threshold, std::vector<Expr> children) {
  // An empty operand can never contribute to an element's count, so it
  // leaves both the census and the threshold unchanged when dropped.
  std::vector<Expr> live;
  for (Expr& c : children) {
    if (c.kind() != ExprKind::kNone) live.push_back(std::move(c));
  }
  if (threshold > live.size()) return Expr::None();
  if (threshold == live.size()) return OptAnd(std::move(live));
  if (threshold == 1) return OptOr(std::move(live));
  return Expr::AtLeast(threshold, std::move(live));
}

Expr OptimizedNode(const Expr& e) {
  switch (e.kind()) {
    case ExprKind::kNone:
      return e;
    case ExprKind::kSet:
      // A *mutable* empty leaf can grow later — never fold it.
      if (!e.leaf().is_mutable() && e.leaf().size() == 0) return Expr::None();
      return e;
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kAtLeast: {
      std::vector<Expr> children;
      children.reserve(e.num_children());
      for (std::size_t i = 0; i < e.num_children(); ++i) {
        children.push_back(OptimizedNode(e.child(i)));
      }
      if (e.kind() == ExprKind::kAnd) return OptAnd(std::move(children));
      if (e.kind() == ExprKind::kOr) return OptOr(std::move(children));
      return OptAtLeast(e.threshold(), std::move(children));
    }
    case ExprKind::kDiff:
      return OptDiff(OptimizedNode(e.child(0)), OptimizedNode(e.child(1)));
  }
  return e;
}

}  // namespace

// ---------------------------------------------------------------------------
// Expr builders.
// ---------------------------------------------------------------------------

std::string_view ToString(ExprKind kind) {
  switch (kind) {
    case ExprKind::kSet:
      return "set";
    case ExprKind::kAnd:
      return "and";
    case ExprKind::kOr:
      return "or";
    case ExprKind::kDiff:
      return "diff";
    case ExprKind::kAtLeast:
      return "at-least";
    case ExprKind::kNone:
      return "none";
  }
  return "unknown";
}

Expr Expr::Set(const PreparedSet& set) {
  if (set.empty_handle()) {
    throw std::invalid_argument("Expr::Set: empty PreparedSet handle");
  }
  ExprNode node;
  node.kind = ExprKind::kSet;
  node.leaf = set;
  return Expr(MakeNode(std::move(node)));
}

Expr Expr::And(std::vector<Expr> children) {
  CheckChildren("And", children, /*require_nonempty=*/true);
  ExprNode node;
  node.kind = ExprKind::kAnd;
  node.children = std::move(children);
  return Expr(MakeNode(std::move(node)));
}

Expr Expr::Or(std::vector<Expr> children) {
  CheckChildren("Or", children, /*require_nonempty=*/true);
  ExprNode node;
  node.kind = ExprKind::kOr;
  node.children = std::move(children);
  return Expr(MakeNode(std::move(node)));
}

Expr Expr::Diff(Expr include, Expr exclude) {
  if (include.empty_handle() || exclude.empty_handle()) {
    throw std::invalid_argument("Expr::Diff: empty Expr handle");
  }
  ExprNode node;
  node.kind = ExprKind::kDiff;
  node.children.push_back(std::move(include));
  node.children.push_back(std::move(exclude));
  return Expr(MakeNode(std::move(node)));
}

Expr Expr::AtLeast(std::size_t threshold, std::vector<Expr> children) {
  if (threshold == 0) {
    throw std::invalid_argument(
        "Expr::AtLeast: threshold must be >= 1 (t = 0 would be the whole "
        "universe, which prepared sets cannot represent)");
  }
  CheckChildren("AtLeast", children, /*require_nonempty=*/true);
  ExprNode node;
  node.kind = ExprKind::kAtLeast;
  node.threshold = threshold;
  node.children = std::move(children);
  return Expr(MakeNode(std::move(node)));
}

Expr Expr::None() {
  ExprNode node;
  node.kind = ExprKind::kNone;
  return Expr(MakeNode(std::move(node)));
}

std::size_t Expr::num_leaves() const {
  if (node_ == nullptr) return 0;
  if (node_->kind == ExprKind::kSet) return 1;
  std::size_t total = 0;
  for (const Expr& c : node_->children) total += c.num_leaves();
  return total;
}

std::string Expr::ToString() const {
  if (node_ == nullptr) return "<empty>";
  std::ostringstream os;
  os << fsi::ToString(node_->kind);
  if (node_->kind == ExprKind::kAtLeast) os << '(' << node_->threshold << ')';
  if (!node_->children.empty()) {
    os << '(';
    for (std::size_t i = 0; i < node_->children.size(); ++i) {
      if (i > 0) os << ", ";
      os << node_->children[i].ToString();
    }
    os << ')';
  }
  return os.str();
}

Expr OptimizeExpr(const Expr& expr) {
  if (expr.empty_handle()) {
    throw std::invalid_argument("OptimizeExpr: empty Expr handle");
  }
  return OptimizedNode(expr);
}

// ---------------------------------------------------------------------------
// ExprCache.
// ---------------------------------------------------------------------------

namespace {
/// Bookkeeping overhead per entry (the LRU list node, the index slot and
/// the result vector's header) — keeps the byte bound honest for many tiny
/// results.
constexpr std::size_t kEntryOverheadBytes = 128;
}  // namespace

std::shared_ptr<const ElemList> ExprCache::Lookup(const ExprKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->elems;
}

void ExprCache::Insert(const ExprKey& key,
                       std::shared_ptr<const ElemList> elems) {
  const std::size_t bytes = elems->size() * sizeof(Elem) + kEntryOverheadBytes;
  if (bytes > max_bytes_) return;  // larger than the whole cache
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Raced with another worker computing the same node: keep the
    // incumbent (bitwise-identical by construction), refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(elems), bytes});
  index_.emplace(key, lru_.begin());
  bytes_ += bytes;
  ++stats_.insertions;
  while (bytes_ > max_bytes_ && !lru_.empty()) {
    Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

ExprCacheStats ExprCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ExprCacheStats out = stats_;
  out.entries = index_.size();
  out.bytes = bytes_;
  return out;
}

void ExprCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

// ---------------------------------------------------------------------------
// Evaluation.
// ---------------------------------------------------------------------------

namespace expr_internal {
namespace {

/// Sorted k-way count-merge: emits every element present in at least
/// `threshold` of the lists (counted with multiplicity).  The generic
/// AtLeast path; the all-leaf grouped path runs core/threshold.h instead.
void AtLeastMerge(const std::vector<std::span<const Elem>>& lists,
                  std::size_t threshold, ElemList* out) {
  std::vector<std::size_t> pos(lists.size(), 0);
  for (;;) {
    bool any = false;
    Elem head = 0;
    for (std::size_t i = 0; i < lists.size(); ++i) {
      if (pos[i] < lists[i].size()) {
        if (!any || lists[i][pos[i]] < head) head = lists[i][pos[i]];
        any = true;
      }
    }
    if (!any) break;
    std::size_t count = 0;
    for (std::size_t i = 0; i < lists.size(); ++i) {
      if (pos[i] < lists[i].size() && lists[i][pos[i]] == head) {
        ++count;
        ++pos[i];
      }
    }
    if (count >= threshold) out->push_back(head);
  }
}

/// Sorted union of two lists into *out (cleared).
void UnionPair(std::span<const Elem> a, std::span<const Elem> b,
               ElemList* out) {
  out->clear();
  out->reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(*out));
}

/// Whether every child of `n` is a leaf.
bool LeafChildren(const ExprNode* n) {
  return std::all_of(n->children.begin(), n->children.end(),
                     [](const Expr& c) { return c.kind() == ExprKind::kSet; });
}

/// The inputs of the Section 6 t-threshold path (core/threshold.h): when
/// every child of `n` is an immutable leaf with a grouped (ScanSet)
/// structure under the engine's one permutation — an uncompressed set of a
/// planner engine, any set of an explicit RanGroupScan engine — fills
/// `*scans` and returns the RanGroupScan instance to count-merge them
/// with; null otherwise.  The evaluator takes the path exactly when this
/// is non-null, and Explain labels the node from the same answer.
const RanGroupScanIntersection* GroupedScans(
    const ExprNode* n, const EvalContext& ctx,
    std::vector<const PreprocessedSet*>* scans) {
  const RanGroupScanIntersection* scan_algorithm =
      ctx.planner != nullptr
          ? &ctx.planner->scan_algorithm()
          : dynamic_cast<const RanGroupScanIntersection*>(ctx.algorithm);
  if (scan_algorithm == nullptr) return nullptr;
  scans->clear();
  for (const Expr& c : n->children) {
    if (c.kind() != ExprKind::kSet || c.leaf().is_mutable()) return nullptr;
    const PreprocessedSet* raw = c.leaf().raw();
    if (const auto* planned = dynamic_cast<const PlannedSet*>(raw)) {
      if (!planned->has_plain()) return nullptr;  // compressed: no ScanSet
      scans->push_back(planned->scan());
    } else if (dynamic_cast<const ScanSet*>(raw) != nullptr) {
      scans->push_back(raw);
    } else {
      return nullptr;
    }
  }
  return scan_algorithm;
}

class Evaluator {
 public:
  explicit Evaluator(const EvalContext& ctx)
      : ctx_(ctx),
        constants_(ctx.planner != nullptr ? ctx.planner->constants()
                                          : CostConstants{}),
        kernels_(simd::DispatchedKernels()) {}

  std::size_t Run(const ExprNode* root, ElemList* out) {
    PrepareLeaves(root);
    const NodeState& result = Eval(root);
    out->assign(result.view.begin(), result.view.end());
    return elements_scanned_;
  }

 private:
  struct NodeState {
    ExprKey key;
    std::optional<MutableSetState> snapshot;  // mutable leaves only
    bool evaluated = false;
    /// Points into the node's leaf structure, `snapshot`, or `owned`.
    std::span<const Elem> view;
    std::shared_ptr<const ElemList> owned;  // set when materialized
  };

  /// Phase A: snapshot every mutable leaf once, so fingerprints and data
  /// agree for the whole run — the key mixes the version of the snapshot
  /// this run actually evaluates, not the live version a concurrent
  /// writer may have advanced.  Returns the node's memoization key.
  const ExprKey& PrepareLeaves(const ExprNode* n) {
    if (auto it = states_.find(n); it != states_.end()) {
      return it->second->key;  // shared subtree: one snapshot, one key
    }
    auto state = std::make_unique<NodeState>();
    state->key = Fingerprint(
        n, [this](const ExprNode* c) { return PrepareLeaves(c); });
    if (n->kind == ExprKind::kSet && n->leaf.is_mutable()) {
      state->snapshot = n->leaf.MutableSnapshot();
      state->key = MixKey(state->key, state->snapshot->version);
    }
    NodeState* inserted = state.get();
    states_.emplace(n, std::move(state));
    return inserted->key;
  }

  const NodeState& Eval(const ExprNode* n) {
    NodeState& state = *states_.at(n);
    if (state.evaluated) return state;
    switch (n->kind) {
      case ExprKind::kNone:
        break;
      case ExprKind::kSet:
        EvalLeaf(n, &state);
        break;
      default:
        EvalComposite(n, &state);
        break;
    }
    state.evaluated = true;
    return state;
  }

  void EvalLeaf(const ExprNode* n, NodeState* state) {
    if (state->snapshot) {
      const MutableSetState& snap = *state->snapshot;
      elements_scanned_ += snap.base.size() + snap.delta.size();
      if (snap.delta.empty()) {
        state->view = snap.base;
      } else {
        state->owned = std::make_shared<const ElemList>(
            MergeEffective(snap.base, snap.delta));
        state->view = *state->owned;
      }
      return;
    }
    const PreprocessedSet* raw = n->leaf.raw();
    elements_scanned_ += raw->size();
    if (std::optional<std::span<const Elem>> elems = StructureElems(raw)) {
      state->view = *elems;
      return;
    }
    // Opaque structure (e.g. a grouped or compressed form): materialize
    // the sorted elements through the algorithm's own k = 1 path.
    ElemList elems;
    const PreprocessedSet* one[1] = {raw};
    ctx_.algorithm->Intersect(std::span<const PreprocessedSet* const>(one, 1),
                              &elems);
    state->owned = std::make_shared<const ElemList>(std::move(elems));
    state->view = *state->owned;
  }

  void EvalComposite(const ExprNode* n, NodeState* state) {
    if (ctx_.cache != nullptr) {
      if (std::shared_ptr<const ElemList> cached =
              ctx_.cache->Lookup(state->key)) {
        state->owned = std::move(cached);
        state->view = *state->owned;
        return;
      }
    }
    ElemList result;
    switch (n->kind) {
      case ExprKind::kAnd:
        EvalAnd(n, &result);
        break;
      case ExprKind::kOr:
        EvalOr(n, &result);
        break;
      case ExprKind::kDiff:
        EvalDiff(n, &result);
        break;
      case ExprKind::kAtLeast:
        EvalAtLeast(n, &result);
        break;
      default:
        break;
    }
    state->owned = std::make_shared<const ElemList>(std::move(result));
    state->view = *state->owned;
    if (ctx_.cache != nullptr) ctx_.cache->Insert(state->key, state->owned);
  }

  void EvalAnd(const ExprNode* n, ElemList* out) {
    if (LeafChildren(n) &&
        n->children.size() <= ctx_.algorithm->max_query_sets()) {
      // The flat queries' executor, over the snapshots PrepareLeaves took:
      // a mutable leaf's delta is folded into the result, never merged
      // into a copy of the leaf.
      ConjunctionInputs run;
      for (const Expr& c : n->children) {
        const NodeState& leaf = *states_.at(c.node());
        run.Add(c.leaf(), leaf.snapshot ? &*leaf.snapshot : nullptr);
      }
      ExecuteConjunction(ctx_, run.views, run.snapshots,
                         PlanConjunction(ctx_, run.views, run.snapshots),
                         /*ordered=*/true, out);
      QueryStats scanned;
      run.FillScanStats(&scanned);
      elements_scanned_ += scanned.elements_scanned;
      return;
    }
    // Smallest-first pairwise chain over the materialized children,
    // choosing merge vs gallop per step from the Merge and SvS cost hooks
    // — the planner's mixed-chain logic applied to arbitrary subresults.
    std::vector<std::span<const Elem>> lists = ChildViews(n);
    std::sort(lists.begin(), lists.end(),
              [](std::span<const Elem> a, std::span<const Elem> b) {
                return a.size() < b.size();
              });
    if (lists.front().empty()) return;
    out->assign(lists[0].begin(), lists[0].end());
    ElemList next;
    for (std::size_t i = 1; i < lists.size() && !out->empty(); ++i) {
      // The per-result term is the same on both sides; leave it out.
      const StepCostQuery q{out->size(), lists[i].size()};
      if (SvsIntersection::StepCost(q, constants_) <
          MergeIntersection::StepCost(q, constants_)) {
        out->resize(kernels_.intersect_skewed(out->data(), out->size(),
                                              lists[i].data(), lists[i].size(),
                                              out->data()));
      } else {
        next.clear();
        kernels_.intersect_pair(out->data(), out->size(), lists[i].data(),
                                lists[i].size(), &next);
        out->swap(next);
      }
    }
  }

  void EvalOr(const ExprNode* n, ElemList* out) {
    std::vector<std::span<const Elem>> lists = ChildViews(n);
    // Smallest-first folding keeps intermediate unions small.
    std::sort(lists.begin(), lists.end(),
              [](std::span<const Elem> a, std::span<const Elem> b) {
                return a.size() < b.size();
              });
    out->assign(lists[0].begin(), lists[0].end());
    ElemList next;
    for (std::size_t i = 1; i < lists.size(); ++i) {
      UnionPair(*out, lists[i], &next);
      out->swap(next);
    }
  }

  void EvalDiff(const ExprNode* n, ElemList* out) {
    const NodeState& include = Eval(n->children[0].node());
    const NodeState& exclude = Eval(n->children[1].node());
    out->assign(include.view.begin(), include.view.end());
    if (!out->empty() && !exclude.view.empty()) {
      SubtractSortedInPlace(out, exclude.view);
    }
  }

  void EvalAtLeast(const ExprNode* n, ElemList* out) {
    // t > k is always empty (unoptimized trees reach here).
    if (n->threshold > n->children.size()) return;
    // Grouped leaves: count-merge the g-ordered arrays with group-census
    // pruning (core/threshold.h).
    std::vector<const PreprocessedSet*> scans;
    if (const RanGroupScanIntersection* scan = GroupedScans(n, ctx_, &scans)) {
      *out = ThresholdIntersection(scan).AtLeast(scans, n->threshold);
      return;
    }
    AtLeastMerge(ChildViews(n), n->threshold, out);
  }

  std::vector<std::span<const Elem>> ChildViews(const ExprNode* n) {
    std::vector<std::span<const Elem>> lists;
    lists.reserve(n->children.size());
    for (const Expr& c : n->children) lists.push_back(Eval(c.node()).view);
    return lists;
  }

  const EvalContext& ctx_;
  const CostConstants constants_;
  const simd::Kernels& kernels_;
  std::unordered_map<const ExprNode*, std::unique_ptr<NodeState>> states_;
  std::size_t elements_scanned_ = 0;
};

}  // namespace

std::size_t Evaluate(const ExprNode& root, const EvalContext& ctx,
                     ElemList* out) {
  out->clear();
  Evaluator evaluator(ctx);
  return evaluator.Run(&root, out);
}

// ---------------------------------------------------------------------------
// Explain: per-node cardinality estimates + algorithm annotations, no
// execution.  Estimates use the planner's uniform-density model extended
// to the algebra: with U the observed universe and p_i = n_i / U,
//   And  -> U * prod p_i          Or  -> U * (1 - prod (1 - p_i))
//   Diff -> n_l * (1 - p_r)       AtLeast -> U * P(Binom-sum >= t)
// where the threshold tail is the exact Poisson-binomial DP over the
// children's densities.
// ---------------------------------------------------------------------------

namespace {

/// Largest element bound across the leaves (exclusive); the density
/// denominator.  An immutable leaf contributes its ElemBound — the full
/// 2^32 domain when its structure records no maximum.
void MaxLeafBound(const ExprNode* n, double* bound) {
  if (n->kind == ExprKind::kSet) {
    const PreparedSet& leaf = n->leaf;
    if (leaf.is_mutable()) {
      MutableSetState snap = leaf.MutableSnapshot();
      if (!snap.base.empty()) {
        *bound = std::max(*bound, static_cast<double>(snap.base.back()) + 1);
      }
      std::span<const Elem> inserts = snap.delta.insert_span();
      if (!inserts.empty()) {
        *bound = std::max(*bound, static_cast<double>(inserts.back()) + 1);
      }
    } else {
      *bound = std::max(*bound, ElemBound(leaf.raw()));
    }
  }
  for (const Expr& c : n->children) MaxLeafBound(c.node(), bound);
}

class ExprPlanner {
 public:
  ExprPlanner(const EvalContext& ctx, double universe)
      : ctx_(ctx),
        constants_(ctx.planner != nullptr ? ctx.planner->constants()
                                          : CostConstants{}),
        universe_(universe) {}

  double predicted() const { return predicted_; }

  double Render(const ExprNode* n, int depth, std::string* out) {
    std::string children_text;
    std::vector<double> ests;
    ests.reserve(n->children.size());
    for (const Expr& c : n->children) {
      ests.push_back(Render(c.node(), depth + 1, &children_text));
    }
    std::string line(static_cast<std::size_t>(depth) * 2, ' ');
    double est = 0.0;
    char buf[96];
    switch (n->kind) {
      case ExprKind::kSet: {
        est = static_cast<double>(n->leaf.size());
        std::snprintf(buf, sizeof(buf), "set  n=%zu", n->leaf.size());
        line += buf;
        if (n->leaf.is_mutable()) {
          std::snprintf(buf, sizeof(buf), "  (mutable v%llu)",
                        static_cast<unsigned long long>(n->leaf.version()));
          line += buf;
        }
        break;
      }
      case ExprKind::kNone:
        line += "none  est~0";
        break;
      case ExprKind::kAnd: {
        std::string annotation;
        est = EstimateAnd(n, ests, &annotation);
        std::snprintf(buf, sizeof(buf), "and [%s]  est~%.0f",
                      annotation.c_str(), est);
        line += buf;
        break;
      }
      case ExprKind::kOr: {
        est = EstimateOr(ests);
        std::snprintf(buf, sizeof(buf), "or  est~%.0f", est);
        line += buf;
        break;
      }
      case ExprKind::kDiff: {
        est = ests[0] * (1.0 - Density(ests[1]));
        predicted_ += constants_.merge_ns * (ests[0] + ests[1]) * 1e-3;
        std::snprintf(buf, sizeof(buf), "diff  est~%.0f", est);
        line += buf;
        break;
      }
      case ExprKind::kAtLeast: {
        std::string annotation;
        est = EstimateAtLeast(n, ests, &annotation);
        std::snprintf(buf, sizeof(buf), "at-least %zu/%zu [%s]  est~%.0f",
                      n->threshold, n->children.size(), annotation.c_str(),
                      est);
        line += buf;
        break;
      }
    }
    *out += line;
    *out += '\n';
    *out += children_text;
    return est;
  }

 private:
  double Density(double est) const {
    return std::min(1.0, est / universe_);
  }

  double EstimateAnd(const ExprNode* n, const std::vector<double>& ests,
                     std::string* annotation) {
    if (!LeafChildren(n) ||
        n->children.size() > ctx_.algorithm->max_query_sets()) {
      *annotation = "chain";
      return ChainEstimate(ests);
    }
    // The plan the evaluator will execute, against fresh snapshots.
    std::vector<PreparedSet> leaves;
    leaves.reserve(n->children.size());
    for (const Expr& c : n->children) leaves.push_back(c.leaf());
    const ConjunctionInputs run(leaves);
    const QueryPlan plan = PlanConjunction(ctx_, run.views, run.snapshots);
    predicted_ += plan.predicted_micros;
    const bool delta = !plan.steps.empty() &&
                       plan.steps.back().algorithm == kDeltaMergeStep;
    const auto base_end = plan.steps.end() - (delta ? 1 : 0);
    if (!plan.planned) {
      *annotation = std::string(ctx_.algorithm->name());
    } else if (plan.steps.begin() == base_end) {
      *annotation = "native";
    } else {
      const bool common =
          std::all_of(plan.steps.begin(), base_end, [&](const PlanStep& s) {
            return s.algorithm == plan.steps[0].algorithm;
          });
      *annotation = common ? plan.steps[0].algorithm : "mixed";
    }
    if (delta) *annotation += "+" + std::string(kDeltaMergeStep);
    return plan.est_result;
  }

  /// Smallest-first merge/gallop chain estimate (the evaluator's
  /// non-native path), density-corrected per step.
  double ChainEstimate(std::vector<double> ests) {
    std::sort(ests.begin(), ests.end());
    double running = ests[0];
    for (std::size_t i = 1; i < ests.size(); ++i) {
      predicted_ +=
          std::min(MergeIntersection::StepCostAt(running, ests[i], 0.0,
                                                 constants_),
                   SvsIntersection::StepCostAt(running, ests[i], 0.0,
                                               constants_)) *
          1e-3;
      running *= Density(ests[i]);
    }
    return running;
  }

  double EstimateOr(std::vector<double> ests) {
    std::sort(ests.begin(), ests.end());
    double miss = 1.0;  // P(element in none of the children)
    double running = 0.0;
    for (std::size_t i = 0; i < ests.size(); ++i) {
      if (i > 0) {
        predicted_ += constants_.merge_ns * (running + ests[i]) * 1e-3;
      }
      miss *= 1.0 - Density(ests[i]);
      running = universe_ * (1.0 - miss);
    }
    return running;
  }

  double EstimateAtLeast(const ExprNode* n, const std::vector<double>& ests,
                         std::string* annotation) {
    const std::size_t k = n->children.size();
    const std::size_t t = n->threshold;
    double total = 0.0;
    for (double e : ests) total += e;
    if (t > k) {
      *annotation = "empty";
      return 0.0;
    }
    // Exact Poisson-binomial tail over the children's densities.
    std::vector<double> dp(k + 1, 0.0);
    dp[0] = 1.0;
    for (double e : ests) {
      const double p = Density(e);
      for (std::size_t j = k; j >= 1; --j) {
        dp[j] = dp[j] * (1.0 - p) + dp[j - 1] * p;
      }
      dp[0] *= 1.0 - p;
    }
    double tail = 0.0;
    for (std::size_t j = t; j <= k; ++j) tail += dp[j];
    const double est = universe_ * tail;
    std::vector<const PreprocessedSet*> scans;
    if (GroupedScans(n, ctx_, &scans) != nullptr) {
      *annotation = "threshold";
      predicted_ +=
          (constants_.scan_ns * total + constants_.scan_result_ns * est) *
          1e-3;
    } else {
      *annotation = "count-merge";
      predicted_ += constants_.merge_ns * total *
                    std::log2(static_cast<double>(k) + 1.0) * 1e-3;
    }
    return est;
  }

  const EvalContext& ctx_;
  const CostConstants constants_;
  const double universe_;
  double predicted_ = 0.0;
};

}  // namespace

QueryPlan PlanExpr(const ExprNode& root, const EvalContext& ctx) {
  double universe = 1.0;
  MaxLeafBound(&root, &universe);
  ExprPlanner planner(ctx, universe);
  QueryPlan plan;
  plan.est_result = planner.Render(&root, 0, &plan.tree);
  plan.predicted_micros = planner.predicted();
  plan.planned = ctx.planner != nullptr;
  return plan;
}

}  // namespace expr_internal

// ---------------------------------------------------------------------------
// Engine / Query glue.
// ---------------------------------------------------------------------------

namespace {

/// Foreign-leaf validation runs on the *unoptimized* tree: constant
/// folding must not hide a cross-engine handle.
void CheckExprLeaves(const ExprNode* n,
                     const IntersectionAlgorithm* algorithm) {
  if (n->kind == ExprKind::kSet && Access::algorithm(n->leaf) != algorithm) {
    throw std::invalid_argument(
        "Engine(" + std::string(algorithm->name()) +
        "): Expr leaf was built by a different engine (algorithm '" +
        std::string(n->leaf.algorithm_name()) +
        "'); structures are not interchangeable across engines");
  }
  for (const Expr& c : n->children) CheckExprLeaves(c.node(), algorithm);
}

std::size_t SumLeafSizes(const ExprNode* n) {
  if (n->kind == ExprKind::kSet) return n->leaf.size();
  std::size_t total = 0;
  for (const Expr& c : n->children) total += SumLeafSizes(c.node());
  return total;
}

}  // namespace

fsi::Query Engine::Query(const Expr& expr) const {
  if (expr.empty_handle()) {
    throw std::invalid_argument(std::string(algorithm_->name()) +
                                ": query over an empty Expr handle");
  }
  CheckExprLeaves(expr.node(), algorithm_.get());
  Expr optimized = OptimizeExpr(expr);
  QueryStats base;
  base.num_sets = optimized.num_leaves();
  base.elements_scanned = SumLeafSizes(optimized.node());
  const expr_internal::EvalContext ctx{algorithm_.get(), planner_view_,
                                       expr_cache_.get(), cost_hook_};
  base.predicted_micros =
      expr_internal::PlanExpr(*optimized.node(), ctx).predicted_micros;
  return fsi::Query(algorithm_, ctx, optimized.shared_node(), expr_cache_,
                    base);
}

}  // namespace fsi
