#include "baseline/svs.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "baseline/plain_set.h"

namespace fsi {

double SvsIntersection::StepCost(const StepCostQuery& q,
                                 const CostConstants& c) {
  return StepCostAt(static_cast<double>(q.small_size),
                    static_cast<double>(q.large_size), q.est_result, c);
}

double SvsIntersection::StepCostAt(double n1, double n2, double r,
                                   const CostConstants& c) {
  return c.gallop_ns * n1 * std::log2(2.0 + n2 / std::max(1.0, n1)) +
         c.result_ns * r;
}

std::unique_ptr<PreprocessedSet> SvsIntersection::Preprocess(
    std::span<const Elem> set) const {
  DebugCheckSortedUnique(set, name());
  return std::make_unique<PlainSet>(set);
}

void SvsIntersection::Intersect(std::span<const PreprocessedSet* const> sets,
                                ElemList* out) const {
  std::vector<const PlainSet*> sorted = SortBySize(sets);
  if (sorted.empty()) return;
  out->assign(sorted[0]->elems().begin(), sorted[0]->elems().end());
  for (std::size_t s = 1; s < sorted.size() && !out->empty(); ++s) {
    // One elimination round, filtering the candidates in place.
    const std::span<const Elem> big = sorted[s]->elems();
    out->resize(kernels_->intersect_skewed(out->data(), out->size(),
                                           big.data(), big.size(),
                                           out->data()));
  }
}

}  // namespace fsi
