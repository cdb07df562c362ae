// Merge: intersection by parallel scan of sorted lists.
//
// The paper's competitor (i): "set intersection based on a simple parallel
// scan of inverted indexes".  Despite its simplicity it is the paper's
// strongest baseline on symmetric inputs, so our implementation keeps the
// inner loop branch-light as the paper's own does ("we tried to minimize the
// number of branches in the inner loop").
//
// Two sets: the textbook two-pointer merge step, O(n1 + n2).
// k sets:   a candidate-advance scan over all k cursors simultaneously.

#ifndef FSI_BASELINE_MERGE_H_
#define FSI_BASELINE_MERGE_H_

#include <memory>
#include <span>
#include <string_view>

#include "core/algorithm.h"
#include "core/cost.h"
#include "simd/intersect_kernels.h"

namespace fsi {

class MergeIntersection : public IntersectionAlgorithm {
 public:
  /// Planner cost hook (core/cost.h): the parallel scan touches every
  /// element once — cost = merge_ns * (n1 + n2), plus the shared
  /// per-result term.
  static double StepCost(const StepCostQuery& q, const CostConstants& c);
  /// The same cost at fractional (estimated) sizes n1, n2 and result r.
  static double StepCostAt(double n1, double n2, double r,
                           const CostConstants& c);

  /// `simd` selects the two-set inner-loop kernel tier: kAuto runs the
  /// CPU-dispatched block merge (registry spec "Merge" or "Merge:simd=auto"),
  /// kOff the scalar two-pointer loop ("Merge:simd=off").  Results are
  /// bit-identical either way.
  explicit MergeIntersection(simd::Mode simd = simd::Mode::kAuto)
      : kernels_(&simd::Select(simd)) {}

  std::string_view name() const override { return "Merge"; }

  std::unique_ptr<PreprocessedSet> Preprocess(
      std::span<const Elem> set) const override;

  void Intersect(std::span<const PreprocessedSet* const> sets,
                 ElemList* out) const override;

 private:
  const simd::Kernels* kernels_;
};

/// Free-function two-pointer intersection of raw sorted spans; reused by the
/// small-group "linear merge" steps inside the paper's own algorithms
/// (Algorithm 2 line 3 and Algorithm 5 line 4) and by tests as ground truth.
void MergeIntersect(std::span<const Elem> a, std::span<const Elem> b,
                    ElemList* out);

/// k-way candidate-advance scan over raw sorted spans (k >= 1).
void MergeIntersectK(std::span<const std::span<const Elem>> lists,
                     ElemList* out);

}  // namespace fsi

#endif  // FSI_BASELINE_MERGE_H_
