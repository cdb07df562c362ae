#include "core/ran_group.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/g_order.h"
#include "util/rng.h"

namespace fsi {

RanGroupIntersection::RanGroupIntersection(const Options& options)
    : options_(options),
      g_(options.universe_bits, SplitMix64(options.seed).Next()),
      h_(SplitMix64(options.seed ^ 0x452821e638d01377ULL).Next()) {}

std::unique_ptr<PreprocessedSet> RanGroupIntersection::Preprocess(
    std::span<const Elem> set) const {
  return std::make_unique<MultiResolutionSet>(set, g_, h_,
                                              options_.single_resolution);
}

void RanGroupIntersection::Intersect(
    std::span<const PreprocessedSet* const> sets, ElemList* out) const {
  IntersectUnordered(sets, out);
  std::sort(out->begin(), out->end());
}

void RanGroupIntersection::IntersectUnordered(
    std::span<const PreprocessedSet* const> sets, ElemList* out) const {
  std::size_t k = sets.size();
  if (k == 0) return;
  std::vector<const MultiResolutionSet*> sorted;
  sorted.reserve(k);
  for (const PreprocessedSet* s : sets) {
    sorted.push_back(&As<MultiResolutionSet>(*s));
  }
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const MultiResolutionSet* a,
                      const MultiResolutionSet* b) {
                     return a->size() < b->size();
                   });
  std::vector<std::uint32_t> result_gvals;
  if (sorted[0]->size() == 0) return;
  if (k == 1) {
    result_gvals.assign(sorted[0]->gvals().begin(), sorted[0]->gvals().end());
  } else {
    // --- Resolution choice -------------------------------------------------
    std::vector<int> t(k);
    if (k == 2 && options_.two_set_optimal && !options_.single_resolution) {
      // Theorem 3.5: t1 = t2 = ceil(log2 sqrt(n1*n2/w)).
      double n1 = static_cast<double>(sorted[0]->size());
      double n2 = static_cast<double>(sorted[1]->size());
      int bal = static_cast<int>(
          std::ceil(0.5 * std::log2(std::max(1.0, n1 * n2 / kWordBits))));
      t[0] = sorted[0]->ClampResolution(bal);
      t[1] = sorted[1]->ClampResolution(bal);
    } else {
      // Theorems 3.6 / 3.7: t_i = ceil(log2(n_i / sqrt(w))).
      for (std::size_t i = 0; i < k; ++i) {
        t[i] = sorted[i]->DefaultResolution();
      }
    }
    // The prefix relation requires t_1 <= t_2 <= ... <= t_k.
    for (std::size_t i = k - 1; i > 0; --i) {
      t[i - 1] = std::min(t[i - 1], t[i]);
    }
    for (std::size_t i = 0; i < k; ++i) {
      if (!sorted[i]->HasResolution(t[i])) {
        throw std::logic_error(
            "RanGroup: required resolution not materialized (structure was "
            "built single-resolution?)");
      }
    }

    // --- Algorithm 4 main loop --------------------------------------------
    int tk = t[k - 1];
    std::uint64_t zk_count = std::uint64_t{1} << tk;
    std::vector<Word> partial(k, 0);
    std::vector<std::uint64_t> prev_z(k, ~std::uint64_t{0});
    std::vector<std::uint32_t> pos(k);
    std::vector<std::uint32_t> end(k);
    std::uint64_t zk = 0;
    while (zk < zk_count) {
      // Find the shallowest level whose group id changed; recompute the
      // memoized partial ANDs from there (A.3(a)).
      std::size_t level = k;
      for (std::size_t i = 0; i < k; ++i) {
        std::uint64_t zi = zk >> (tk - t[i]);
        if (zi != prev_z[i]) {
          level = i;
          break;
        }
      }
      bool dead = false;
      for (std::size_t i = level; i < k; ++i) {
        std::uint64_t zi = zk >> (tk - t[i]);
        prev_z[i] = zi;
        Word img = sorted[i]->Image(t[i], zi);
        partial[i] = (i == 0 ? img : (partial[i - 1] & img));
        if (partial[i] == 0) {
          // No element of any finer group can survive: skip every z_k that
          // shares this z_i prefix.
          zk = (zi + 1) << (tk - t[i]);
          for (std::size_t j = i; j < k; ++j) prev_z[j] = ~std::uint64_t{0};
          dead = true;
          break;
        }
      }
      if (dead) continue;

      // Extended IntersectSmall (Algorithm 2): for each surviving h-value y,
      // linearly merge the k chains h^{-1}(y, L^{z_i}_i) in g-order.
      Word image_and = partial[k - 1];
      ForEachBit(image_and, [&](int y) {
        for (std::size_t i = 0; i < k; ++i) {
          std::uint64_t zi = zk >> (tk - t[i]);
          auto [lo, hi] = sorted[i]->GroupRange(t[i], zi);
          (void)lo;
          pos[i] = sorted[i]->FirstPos(t[i], zi, y);
          end[i] = hi;
          if (pos[i] == kNoPos) return;  // empty chain: nothing for this y
        }
        // Round-robin k-pointer merge keyed on gval (g is shared, so equal
        // elements have equal gvals across sets).
        std::uint32_t cand = sorted[0]->gvals()[pos[0]];
        std::size_t agree = 1;
        std::size_t i = 1 % k;
        while (true) {
          const MultiResolutionSet& si = *sorted[i];
          std::uint32_t p = pos[i];
          while (p != kNoPos && p < end[i] && si.gvals()[p] < cand) {
            p = si.NextPos(p);
          }
          if (p == kNoPos || p >= end[i]) return;  // chain i exhausted
          pos[i] = p;
          if (si.gvals()[p] == cand) {
            if (++agree == k) {
              result_gvals.push_back(cand);
              std::uint32_t q = si.NextPos(p);
              if (q == kNoPos || q >= end[i]) return;
              pos[i] = q;
              cand = si.gvals()[q];
              agree = 1;
            }
          } else {
            cand = si.gvals()[p];
            agree = 1;
          }
          i = (i + 1) % k;
        }
      });
      ++zk;
    }
  }

  // Recover original elements and restore value order.
  AppendInverse(g_, result_gvals, out);
}

}  // namespace fsi
