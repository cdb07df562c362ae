#include "baseline/merge.h"

#include <vector>

#include "baseline/plain_set.h"

namespace fsi {

double MergeIntersection::StepCost(const StepCostQuery& q,
                                   const CostConstants& c) {
  return StepCostAt(static_cast<double>(q.small_size),
                    static_cast<double>(q.large_size), q.est_result, c);
}

double MergeIntersection::StepCostAt(double n1, double n2, double r,
                                     const CostConstants& c) {
  return c.merge_ns * (n1 + n2) + c.result_ns * r;
}

std::unique_ptr<PreprocessedSet> MergeIntersection::Preprocess(
    std::span<const Elem> set) const {
  DebugCheckSortedUnique(set, name());
  return std::make_unique<PlainSet>(set);
}

void MergeIntersect(std::span<const Elem> a, std::span<const Elem> b,
                    ElemList* out) {
  // The scalar kernel is the original branch-light two-pointer loop; this
  // free function stays scalar on purpose — it is the ground truth the
  // tests compare every vectorized path against.
  simd::ScalarKernels().intersect_pair(a.data(), a.size(), b.data(), b.size(),
                                       out);
}

void MergeIntersectK(std::span<const std::span<const Elem>> lists,
                     ElemList* out) {
  if (lists.empty()) return;
  if (lists.size() == 1) {
    out->assign(lists[0].begin(), lists[0].end());
    return;
  }
  if (lists.size() == 2) {
    MergeIntersect(lists[0], lists[1], out);
    return;
  }
  // Round-robin candidate-advance: `candidate` is the current largest head;
  // `agree` counts how many consecutive lists confirmed it.  Every list,
  // including list 0, participates in confirmation.
  std::size_t k = lists.size();
  std::vector<std::size_t> pos(k, 0);
  if (lists[0].empty()) return;
  Elem candidate = lists[0][0];
  std::size_t agree = 1;
  std::size_t i = 1;
  while (true) {
    std::span<const Elem> li = lists[i];
    std::size_t p = pos[i];
    while (p < li.size() && li[p] < candidate) ++p;
    pos[i] = p;
    if (p == li.size()) return;  // some list exhausted: done
    if (li[p] == candidate) {
      if (++agree == k) {
        out->push_back(candidate);
        if (++pos[i] == li.size()) return;
        candidate = li[pos[i]];
        agree = 1;
      }
    } else {
      candidate = li[p];  // overshoot: new, larger candidate from list i
      agree = 1;
    }
    i = (i + 1) % k;
  }
}

void MergeIntersection::Intersect(std::span<const PreprocessedSet* const> sets,
                                  ElemList* out) const {
  std::vector<std::span<const Elem>> lists;
  lists.reserve(sets.size());
  for (const PreprocessedSet* s : sets) {
    lists.push_back(As<PlainSet>(*s).elems());
  }
  if (lists.size() == 2) {
    // The dominant query shape takes the kernel layer: block-wise merge on
    // AVX2 machines, the classic two-pointer loop under simd=off /
    // FSI_FORCE_SCALAR.  Identical output either way.
    kernels_->intersect_pair(lists[0].data(), lists[0].size(),
                             lists[1].data(), lists[1].size(), out);
    return;
  }
  MergeIntersectK(lists, out);
}

}  // namespace fsi
