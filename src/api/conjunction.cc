// The conjunction executor shared by flat queries and the Expr evaluator:
// plan, intersect, fold in the mutable inputs' deltas (api/expr.h).

#include <algorithm>
#include <memory>
#include <optional>
#include <string>

#include "api/expr.h"
#include "api/planner.h"
#include "core/delta_set.h"
#include "simd/intersect_kernels.h"

namespace fsi {
namespace expr_internal {

ConjunctionInputs::ConjunctionInputs(std::span<const PreparedSet> leaves) {
  views.reserve(leaves.size());
  for (const PreparedSet& leaf : leaves) {
    const MutableSetState* snapshot = nullptr;
    if (leaf.is_mutable()) {
      // Reserved up front, so earlier snapshot pointers stay valid.
      if (owned.empty()) owned.reserve(leaves.size());
      owned.push_back(leaf.MutableSnapshot());
      snapshot = &owned.back();
    }
    Add(leaf, snapshot);
  }
}

void ConjunctionInputs::Add(const PreparedSet& leaf,
                            const MutableSetState* snapshot) {
  if (snapshot != nullptr || !snapshots.empty()) {
    snapshots.resize(views.size(), nullptr);
    snapshots.push_back(snapshot);
  }
  views.push_back(snapshot != nullptr ? snapshot->structure.get() : leaf.raw());
}

void ConjunctionInputs::FillScanStats(QueryStats* stats) const {
  stats->elements_scanned = 0;
  stats->groups_probed = 0;
  for (std::size_t i = 0; i < views.size(); ++i) {
    const MutableSetState* snap = snapshots.empty() ? nullptr : snapshots[i];
    stats->elements_scanned += snap != nullptr
                                   ? snap->base.size() + snap->delta.size()
                                   : views[i]->size();
    const std::uint64_t groups = views[i]->NumGroups();
    if (groups > 0) {
      stats->groups_probed = stats->groups_probed == 0
                                 ? groups
                                 : std::min(stats->groups_probed, groups);
    }
  }
}

QueryPlan PlanConjunction(const EvalContext& ctx,
                          std::span<const PreprocessedSet* const> views,
                          std::span<const MutableSetState* const> snapshots) {
  QueryPlan plan = ctx.planner != nullptr
                       ? ctx.planner->Plan(views)
                       : PlanExplicit(*ctx.algorithm, views, ctx.cost_hook);
  std::size_t inserts = 0;
  std::size_t erases = 0;
  for (const MutableSetState* snap : snapshots) {
    if (snap == nullptr) continue;
    inserts += snap->delta.insert_span().size();
    erases += snap->delta.erase_span().size();
  }
  if (inserts + erases == 0) return plan;
  std::size_t max_base_size = 0;
  for (const PreprocessedSet* v : views) {
    max_base_size = std::max(max_base_size, v->size());
  }
  PlanStep step;
  step.algorithm = std::string(kDeltaMergeStep);
  step.left_size = static_cast<std::size_t>(plan.est_result);
  step.left_estimated = true;
  step.right_size = inserts + erases;
  step.est_result = plan.est_result;
  step.predicted_micros = DeltaFixupMicros(
      views.size(), plan.est_result, erases, inserts, max_base_size,
      ctx.planner != nullptr ? ctx.planner->constants() : CostConstants{});
  plan.predicted_micros += step.predicted_micros;
  plan.steps.push_back(std::move(step));
  return plan;
}

void ExecuteConjunction(const EvalContext& ctx,
                        std::span<const PreprocessedSet* const> views,
                        std::span<const MutableSetState* const> snapshots,
                        const QueryPlan& plan, bool ordered, ElemList* out) {
  const std::size_t k = views.size();
  if (k > 0) {
    if (ctx.planner != nullptr) {
      ctx.planner->ExecutePlan(views, plan, ordered, out);
    } else if (ordered) {
      ctx.algorithm->Intersect(views, out);
    } else {
      ctx.algorithm->IntersectUnordered(views, out);
    }
  }
  std::vector<const DeltaSnapshot*> deltas;
  for (const MutableSetState* snap : snapshots) {
    if (snap != nullptr && !snap->delta.empty()) deltas.push_back(&snap->delta);
  }
  if (deltas.empty()) return;
  const simd::Kernels& kernels = simd::DispatchedKernels();
  // Step 1: drop tombstoned elements from the base intersection.
  for (const DeltaSnapshot* delta : deltas) {
    if (out->empty()) break;
    std::span<const Elem> erases = delta->erase_span();
    if (erases.empty()) continue;
    if (ordered) {
      SubtractSortedInPlace(out, erases);
    } else {
      SubtractUnorderedInPlace(out, erases, kernels);
    }
  }
  // Step 2: admit insert-buffer elements present in *every* effective set.
  // Candidates are disjoint from the base intersection (an insert is never
  // a base member of its own set), so the merge in step 3 cannot
  // duplicate.
  ElemList candidates = UnionInsertBuffers(deltas);
  for (std::size_t i = 0; i < k && !candidates.empty(); ++i) {
    if (const MutableSetState* snap = snapshots[i]) {
      FilterByEffectiveMembership(&candidates, snap->base, snap->delta,
                                  kernels);
    } else if (std::optional<std::span<const Elem>> elems =
                   StructureElems(views[i])) {
      IntersectWithSortedSpan(&candidates, *elems, kernels);
    } else {
      // Opaque immutable structure: intersect the (small) candidate list
      // against it with the engine's own algorithm.
      std::unique_ptr<PreprocessedSet> candidate_set(
          ctx.algorithm->Preprocess(candidates));
      const PreprocessedSet* pair[2] = {candidate_set.get(), views[i]};
      ElemList kept;
      ctx.algorithm->Intersect(pair, &kept);
      candidates.swap(kept);
    }
  }
  // Step 3: fold the admitted candidates into the result.
  if (!candidates.empty()) {
    if (ordered) {
      MergeSortedDisjointInPlace(out, candidates);
    } else {
      out->insert(out->end(), candidates.begin(), candidates.end());
    }
  }
}

}  // namespace expr_internal
}  // namespace fsi
