#include "core/hash_bin.h"

#include <algorithm>
#include <cmath>

#include "core/g_order.h"
#include "util/bits.h"
#include "util/rng.h"

namespace fsi {

double HashBinIntersection::StepCost(const StepCostQuery& q,
                                     const CostConstants& c) {
  double n1 = static_cast<double>(q.small_size);
  double n2 = static_cast<double>(q.large_size);
  double log_ratio = std::log2(2.0 + (n1 > 0 ? n2 / n1 : n2));
  return c.hashbin_ns * n1 * log_ratio + c.scan_result_ns * q.est_result;
}

namespace {

/// First index in `gv[lo, n)` with value >= x: exponential probe + binary
/// search, expected O(log distance).
std::size_t GallopGval(std::span<const std::uint32_t> gv, std::size_t lo,
                       std::uint64_t x) {
  std::size_t n = gv.size();
  if (lo >= n || gv[lo] >= x) return lo;
  std::size_t step = 1;
  std::size_t prev = lo;
  std::size_t cur = lo + 1;
  while (cur < n && gv[cur] < x) {
    prev = cur;
    step *= 2;
    cur = lo + step;
  }
  if (cur > n) cur = n;
  auto it = std::lower_bound(gv.begin() + static_cast<std::ptrdiff_t>(prev) + 1,
                             gv.begin() + static_cast<std::ptrdiff_t>(cur),
                             x);
  return static_cast<std::size_t>(it - gv.begin());
}

}  // namespace

GOrderedSet::GOrderedSet(std::span<const Elem> set,
                         const FeistelPermutation& g)
    : gvals_(GOrder(set, g, "HashBin")) {}

void HashBinIntersectGvals(
    std::span<const std::span<const std::uint32_t>> gval_lists,
    int domain_bits, std::vector<std::uint32_t>* out_gvals) {
  std::size_t k = gval_lists.size();
  std::span<const std::uint32_t> lead = gval_lists[0];
  if (lead.empty()) return;
  // t = ceil(log2 n1): the smaller set has ~1 element per group.
  int t = std::min(CeilLog2(lead.size()), domain_bits);
  int shift = domain_bits - t;

  // Rolling cursors: group windows are ascending in g-value space, so every
  // boundary gallop starts from the previous one.  (Thread-local: short
  // queries are allocation-sensitive.)
  thread_local std::vector<std::size_t> win_lo;
  win_lo.assign(k, 0);
  thread_local std::vector<std::size_t> win_hi;
  win_hi.assign(k, 0);

  std::size_t p = 0;
  while (p < lead.size()) {
    std::uint64_t z = static_cast<std::uint64_t>(lead[p]) >> shift;
    // The lead set's group is the run of positions sharing prefix z.
    std::size_t group_end = p + 1;
    while (group_end < lead.size() &&
           (static_cast<std::uint64_t>(lead[group_end]) >> shift) == z) {
      ++group_end;
    }
    // Locate the group window [lo, hi) in every other list.
    std::uint64_t range_lo = z << shift;
    std::uint64_t range_hi = (z + 1) << shift;
    bool any_empty = false;
    for (std::size_t i = 1; i < k; ++i) {
      std::span<const std::uint32_t> gv = gval_lists[i];
      std::size_t lo = GallopGval(gv, win_hi[i], range_lo);
      std::size_t hi = GallopGval(gv, lo, range_hi);
      win_lo[i] = lo;
      win_hi[i] = hi;
      if (lo == hi) {
        any_empty = true;
        break;
      }
    }
    if (!any_empty) {
      for (std::size_t q = p; q < group_end; ++q) {
        std::uint32_t x = lead[q];
        bool in_all = true;
        for (std::size_t i = 1; i < k; ++i) {
          std::span<const std::uint32_t> gv = gval_lists[i];
          auto first = gv.begin() + static_cast<std::ptrdiff_t>(win_lo[i]);
          auto last = gv.begin() + static_cast<std::ptrdiff_t>(win_hi[i]);
          if (!std::binary_search(first, last, x)) {
            in_all = false;
            break;
          }
        }
        if (in_all) out_gvals->push_back(x);
      }
    }
    p = group_end;
  }
}

HashBinIntersection::HashBinIntersection(const Options& options)
    : options_(options),
      g_(options.universe_bits, SplitMix64(options.seed).Next()) {}

std::unique_ptr<PreprocessedSet> HashBinIntersection::Preprocess(
    std::span<const Elem> set) const {
  return std::make_unique<GOrderedSet>(set, g_);
}

void HashBinIntersection::Intersect(
    std::span<const PreprocessedSet* const> sets, ElemList* out) const {
  IntersectUnordered(sets, out);
  std::sort(out->begin(), out->end());
}

void HashBinIntersection::IntersectUnordered(
    std::span<const PreprocessedSet* const> sets, ElemList* out) const {
  std::size_t k = sets.size();
  if (k == 0) return;
  thread_local std::vector<const GOrderedSet*> sorted;
  sorted.clear();
  sorted.reserve(k);
  for (const PreprocessedSet* s : sets) sorted.push_back(&As<GOrderedSet>(*s));
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const GOrderedSet* a, const GOrderedSet* b) {
                     return a->size() < b->size();
                   });
  thread_local std::vector<std::uint32_t> result_gvals;
  result_gvals.clear();
  if (sorted[0]->size() == 0) return;
  if (k == 1) {
    result_gvals.assign(sorted[0]->gvals().begin(), sorted[0]->gvals().end());
  } else {
    thread_local std::vector<std::span<const std::uint32_t>> lists;
    lists.clear();
    lists.reserve(k);
    for (const GOrderedSet* s : sorted) lists.push_back(s->gvals());
    HashBinIntersectGvals(lists, g_.domain_bits(), &result_gvals);
  }
  AppendInverse(g_, result_gvals, out);
}

}  // namespace fsi
