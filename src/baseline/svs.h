// SvS ("smallest vs. smallest") with galloping search.
//
// The classic adaptive baseline ([12, 13, 3]; best-performing adaptive
// algorithm in several of the paper's experiments): sort the query sets by
// size, take the smallest as the candidate set, and for each further set
// keep only the candidates found by galloping search, processing sets in
// increasing size order.  O(n1 log(n2/n1))-style behaviour on skewed inputs.

#ifndef FSI_BASELINE_SVS_H_
#define FSI_BASELINE_SVS_H_

#include <memory>
#include <span>
#include <string_view>

#include "core/algorithm.h"
#include "core/cost.h"
#include "simd/intersect_kernels.h"

namespace fsi {

class SvsIntersection : public IntersectionAlgorithm {
 public:
  /// Planner cost hook (core/cost.h): each candidate gallops into the
  /// larger set — cost = gallop_ns * n1 * log2(2 + n2/n1), plus the shared
  /// per-result term.
  static double StepCost(const StepCostQuery& q, const CostConstants& c);
  /// The same cost at fractional (estimated) sizes n1, n2 and result r.
  static double StepCostAt(double n1, double n2, double r,
                           const CostConstants& c);

  /// `simd` selects the intersect_skewed kernel tier (registry option
  /// "SvS:simd=auto|off"): the scalar tier gallops per candidate, the
  /// vector tiers skip the larger set in 32-element blocks and settle each
  /// candidate with one broadcast compare over its block.
  explicit SvsIntersection(simd::Mode simd = simd::Mode::kAuto)
      : kernels_(&simd::Select(simd)) {}

  std::string_view name() const override { return "SvS"; }

  std::unique_ptr<PreprocessedSet> Preprocess(
      std::span<const Elem> set) const override;

  void Intersect(std::span<const PreprocessedSet* const> sets,
                 ElemList* out) const override;

 private:
  const simd::Kernels* kernels_;
};

}  // namespace fsi

#endif  // FSI_BASELINE_SVS_H_
