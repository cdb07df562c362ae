#include "core/threshold.h"

#include <algorithm>
#include <stdexcept>

#include "core/g_order.h"

namespace fsi {

ElemList ThresholdIntersection::AtLeast(
    std::span<const PreprocessedSet* const> sets, std::size_t threshold) const {
  std::size_t k = sets.size();
  if (threshold < 1 || threshold > k) {
    throw std::invalid_argument("ThresholdIntersection: threshold out of range");
  }
  ElemList out;
  if (threshold == k) {
    // Full intersection: the image-filtered fast path.
    scan_->Intersect(sets, &out);
    return out;
  }
  std::vector<const ScanSet*> scans;
  scans.reserve(k);
  for (const PreprocessedSet* s : sets) scans.push_back(&As<ScanSet>(*s));

  // Count-merge the k g-ordered arrays.  Window census pruning: align all
  // sets at the finest resolution present; windows where fewer than
  // `threshold` sets are non-empty cannot contribute.
  int tmax = 0;
  for (const ScanSet* s : scans) tmax = std::max(tmax, s->t());
  const int b = scan_->permutation().domain_bits();

  std::vector<std::uint32_t> pos(k, 0);
  std::vector<std::uint32_t> result_gvals;
  for (std::uint64_t z = 0; z < (std::uint64_t{1} << tmax); ++z) {
    const std::uint64_t win_lo = z << (b - tmax);
    const std::uint64_t win_hi = (z + 1) << (b - tmax);
    // Census: position every cursor at the window start; count live sets.
    std::size_t live = 0;
    for (std::size_t i = 0; i < k; ++i) {
      std::uint64_t zi = z >> (tmax - scans[i]->t());
      auto [lo, hi] = scans[i]->GroupRange(zi);
      std::uint32_t c = std::max(pos[i], lo);
      std::span<const std::uint32_t> gv = scans[i]->gvals();
      while (c < hi && gv[c] < win_lo) ++c;
      pos[i] = c;
      live += (c < hi && gv[c] < win_hi);
    }
    if (live < threshold) continue;
    // Count-merge inside the window: repeatedly take the minimum head.
    while (true) {
      std::uint32_t min_gv = ~std::uint32_t{0};
      bool any = false;
      for (std::size_t i = 0; i < k; ++i) {
        std::span<const std::uint32_t> gv = scans[i]->gvals();
        if (pos[i] < gv.size() && gv[pos[i]] < win_hi) {
          any = true;
          min_gv = std::min(min_gv, gv[pos[i]]);
        }
      }
      if (!any) break;
      std::size_t count = 0;
      for (std::size_t i = 0; i < k; ++i) {
        std::span<const std::uint32_t> gv = scans[i]->gvals();
        if (pos[i] < gv.size() && gv[pos[i]] == min_gv) {
          ++count;
          ++pos[i];
        }
      }
      if (count >= threshold) result_gvals.push_back(min_gv);
    }
  }
  AppendInverse(scan_->permutation(), result_gvals, &out);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace fsi
