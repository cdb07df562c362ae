// The Hybrid facade.
//
// HybridIntersection implements the online algorithm choice the paper
// closes Section 3.4 with: "since [HashBin] is based on the same structure
// as the algorithm introduced in Section 3.2, we can make the choice
// between algorithms online, based on n1/n2".  One pre-processed structure
// (the RanGroupScan block layout, whose g-value array is globally sorted)
// serves both algorithms; queries with heavily skewed set sizes take the
// HashBin path, balanced ones take RanGroupScan.  Algorithms are
// instantiated by name through fsi::AlgorithmRegistry (api/registry.h).

#ifndef FSI_CORE_INTERSECTOR_H_
#define FSI_CORE_INTERSECTOR_H_

#include <memory>
#include <span>
#include <string_view>

#include "core/algorithm.h"
#include "core/cost.h"
#include "core/hash_bin.h"
#include "core/ran_group_scan.h"

namespace fsi {

class HybridIntersection : public IntersectionAlgorithm {
 public:
  struct Options {
    RanGroupScanIntersection::Options scan;
    /// Size-ratio threshold above which the HashBin path is taken.  The
    /// paper proposes switching near sr = 32; in this implementation the
    /// scan path already walks only the smaller set's windows (see
    /// ran_group_scan.cc), which subsumes HashBin's advantage, so the
    /// switch is off by default (infinite threshold).  Set a finite value
    /// to restore the paper's online choice.
    double skew_threshold = 1e300;
  };

  HybridIntersection() : HybridIntersection(Options()) {}
  explicit HybridIntersection(const Options& options);

  /// Planner cost hook (core/cost.h): the facade takes whichever of its two
  /// paths is cheaper — min(RanGroupScan::StepCost, HashBin::StepCost).
  static double StepCost(const StepCostQuery& q, const CostConstants& c);

  std::string_view name() const override { return "Hybrid"; }

  std::unique_ptr<PreprocessedSet> Preprocess(
      std::span<const Elem> set) const override;

  void Intersect(std::span<const PreprocessedSet* const> sets,
                 ElemList* out) const override;

  void IntersectUnordered(std::span<const PreprocessedSet* const> sets,
                          ElemList* out) const override;

 private:
  Options options_;
  RanGroupScanIntersection scan_;
};

}  // namespace fsi

#endif  // FSI_CORE_INTERSECTOR_H_
