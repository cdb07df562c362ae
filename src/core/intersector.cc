#include "core/intersector.h"

#include <algorithm>
#include <vector>

#include "core/g_order.h"

namespace fsi {

double HybridIntersection::StepCost(const StepCostQuery& q,
                                    const CostConstants& c) {
  return std::min(RanGroupScanIntersection::StepCost(q, c),
                  HashBinIntersection::StepCost(q, c));
}

HybridIntersection::HybridIntersection(const Options& options)
    : options_(options), scan_(options.scan) {}

std::unique_ptr<PreprocessedSet> HybridIntersection::Preprocess(
    std::span<const Elem> set) const {
  return scan_.Preprocess(set);
}

void HybridIntersection::Intersect(
    std::span<const PreprocessedSet* const> sets, ElemList* out) const {
  IntersectUnordered(sets, out);
  std::sort(out->begin(), out->end());
}

void HybridIntersection::IntersectUnordered(
    std::span<const PreprocessedSet* const> sets, ElemList* out) const {
  std::size_t k = sets.size();
  if (k < 2) {
    scan_.IntersectUnordered(sets, out);
    return;
  }
  std::size_t min_n = SIZE_MAX;
  std::size_t max_n = 0;
  for (const PreprocessedSet* s : sets) {
    min_n = std::min(min_n, s->size());
    max_n = std::max(max_n, s->size());
  }
  if (min_n == 0) return;
  double ratio = static_cast<double>(max_n) / static_cast<double>(min_n);
  if (ratio < options_.skew_threshold) {
    scan_.IntersectUnordered(sets, out);
    return;
  }
  // HashBin path on the shared structure: ScanSet's g-value array is
  // globally ascending, which is all HashBin needs.
  thread_local std::vector<const ScanSet*> sorted;
  sorted.clear();
  sorted.reserve(k);
  for (const PreprocessedSet* s : sets) sorted.push_back(&As<ScanSet>(*s));
  std::stable_sort(
      sorted.begin(), sorted.end(),
      [](const ScanSet* a, const ScanSet* b) { return a->size() < b->size(); });
  thread_local std::vector<std::span<const std::uint32_t>> lists;
  lists.clear();
  lists.reserve(k);
  for (const ScanSet* s : sorted) lists.push_back(s->gvals());
  thread_local std::vector<std::uint32_t> result_gvals;
  result_gvals.clear();
  HashBinIntersectGvals(lists, scan_.permutation().domain_bits(),
                        &result_gvals);
  AppendInverse(scan_.permutation(), result_gvals, out);
}

}  // namespace fsi
