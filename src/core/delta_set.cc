#include "core/delta_set.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace fsi {
namespace {

/// First index with sorted[i] >= x (plain binary search; the kernel table
/// is used where the call sites are hot).
std::size_t LowerBoundIndex(std::span<const Elem> sorted, Elem x) {
  return static_cast<std::size_t>(
      std::lower_bound(sorted.begin(), sorted.end(), x) - sorted.begin());
}

bool SortedContains(std::span<const Elem> sorted, Elem x) {
  std::size_t i = LowerBoundIndex(sorted, x);
  return i < sorted.size() && sorted[i] == x;
}

/// Copy of `list` with `value` spliced in at its sorted position.
std::shared_ptr<const ElemList> WithValue(std::span<const Elem> list,
                                          Elem value) {
  auto out = std::make_shared<ElemList>();
  out->reserve(list.size() + 1);
  std::size_t at = LowerBoundIndex(list, value);
  out->insert(out->end(), list.begin(), list.begin() + at);
  out->push_back(value);
  out->insert(out->end(), list.begin() + at, list.end());
  return out;
}

/// Copy of `list` without `value`; null when the copy would be empty.
std::shared_ptr<const ElemList> WithoutValue(std::span<const Elem> list,
                                             Elem value) {
  if (list.size() == 1) return nullptr;
  auto out = std::make_shared<ElemList>();
  out->reserve(list.size() - 1);
  for (Elem e : list) {
    if (e != value) out->push_back(e);
  }
  return out;
}

}  // namespace

std::optional<DeltaSnapshot> DeltaInsert(std::span<const Elem> base,
                                         const DeltaSnapshot& delta,
                                         Elem value) {
  if (SortedContains(delta.erase_span(), value)) {
    // Revoke the tombstone: value returns through the base tier.
    return DeltaSnapshot{delta.inserts, WithoutValue(delta.erase_span(),
                                                     value)};
  }
  if (SortedContains(base, value)) return std::nullopt;  // already present
  if (SortedContains(delta.insert_span(), value)) return std::nullopt;
  return DeltaSnapshot{WithValue(delta.insert_span(), value), delta.erases};
}

std::optional<DeltaSnapshot> DeltaErase(std::span<const Elem> base,
                                        const DeltaSnapshot& delta,
                                        Elem value) {
  if (SortedContains(delta.insert_span(), value)) {
    return DeltaSnapshot{WithoutValue(delta.insert_span(), value),
                         delta.erases};
  }
  if (SortedContains(delta.erase_span(), value)) return std::nullopt;
  if (!SortedContains(base, value)) return std::nullopt;  // never present
  return DeltaSnapshot{delta.inserts, WithValue(delta.erase_span(), value)};
}

bool EffectiveContains(std::span<const Elem> base, const DeltaSnapshot& delta,
                       Elem value, const simd::Kernels& kernels) {
  std::span<const Elem> erases = delta.erase_span();
  if (!erases.empty()) {
    std::size_t i = kernels.lower_bound(erases.data(), erases.size(), value);
    if (i < erases.size() && erases[i] == value) return false;
  }
  std::span<const Elem> inserts = delta.insert_span();
  if (!inserts.empty()) {
    std::size_t i = kernels.lower_bound(inserts.data(), inserts.size(), value);
    if (i < inserts.size() && inserts[i] == value) return true;
  }
  std::size_t i = kernels.lower_bound(base.data(), base.size(), value);
  return i < base.size() && base[i] == value;
}

ElemList MergeEffective(std::span<const Elem> base,
                        const DeltaSnapshot& delta) {
  std::span<const Elem> inserts = delta.insert_span();
  std::span<const Elem> erases = delta.erase_span();
  ElemList out;
  out.reserve(base.size() - erases.size() + inserts.size());
  std::size_t bi = 0, ii = 0, ei = 0;
  while (bi < base.size() || ii < inserts.size()) {
    // inserts ∩ base = ∅, so strict comparison fully orders the merge.
    if (ii < inserts.size() &&
        (bi == base.size() || inserts[ii] < base[bi])) {
      out.push_back(inserts[ii++]);
      continue;
    }
    Elem b = base[bi++];
    while (ei < erases.size() && erases[ei] < b) ++ei;  // erases ⊆ base
    if (ei < erases.size() && erases[ei] == b) {
      ++ei;
      continue;  // tombstoned
    }
    out.push_back(b);
  }
  return out;
}

void SubtractSortedInPlace(ElemList* result, std::span<const Elem> erases) {
  if (erases.empty() || result->empty()) return;
  ElemList& r = *result;
  // Two-cursor merge: both sides are sorted, so the erase cursor only
  // ever advances — O(|result| + |erases|) with one compare per result
  // element on the hot path (a per-element search would cost a function
  // call plus O(log) probes each, an order of magnitude more).
  std::size_t write = 0;
  std::size_t ei = 0;
  const std::size_t en = erases.size();
  for (std::size_t i = 0; i < r.size(); ++i) {
    Elem x = r[i];
    while (ei < en && erases[ei] < x) ++ei;
    if (ei < en && erases[ei] == x) {
      ++ei;
      continue;  // tombstoned
    }
    r[write++] = x;
  }
  r.resize(write);
}

namespace {

/// Two independent bucket indices into one 64-bit word of a Bloom gate,
/// derived from a single multiplicative scramble (the low bits of nearby
/// doc ids collide, the scrambled high bits do not).
struct GateHash {
  std::size_t word;
  std::uint64_t probe;  // the two bits to test/set within that word
};

inline GateHash HashIntoGate(Elem x, std::size_t word_mask) {
  std::uint64_t h = static_cast<std::uint64_t>(x) * 0x9E3779B97F4A7C15ULL;
  std::uint64_t bit_a = (h >> 32) & 63;
  std::uint64_t bit_b = (h >> 38) & 63;
  return GateHash{static_cast<std::size_t>((h >> 44)) & word_mask,
                  (1ull << bit_a) | (1ull << bit_b)};
}

}  // namespace

void SubtractUnorderedInPlace(ElemList* result, std::span<const Elem> erases,
                              const simd::Kernels& kernels) {
  if (erases.empty() || result->empty()) return;
  ElemList& r = *result;
  // The result is unordered, so every element must be screened — keep the
  // common case (not tombstoned) to one L1 load: a blocked Bloom gate
  // (two bits per key inside a single 64-bit word, ~32 bits budgeted per
  // tombstone) rejects almost every element with one load and one AND.
  // The scan is read-only; tombstoned survivors are swapped out from the
  // back afterwards, which is legal precisely because this is the
  // unordered path.
  // ≥16 bits per tombstone: small enough to stay L1-resident next to the
  // streamed result (a larger gate has fewer false positives but loses
  // more to cache misses than the rare fallback searches cost).
  std::size_t words = 1;
  while (words * 4 < erases.size()) words <<= 1;
  words = std::min<std::size_t>(words, 1u << 16);  // cap the gate at 512 KiB
  const std::size_t word_mask = words - 1;
  std::vector<std::uint64_t> gate(words, 0);
  for (Elem e : erases) {
    GateHash g = HashIntoGate(e, word_mask);
    gate[g.word] |= g.probe;
  }
  std::vector<std::size_t> hits;
  for (std::size_t i = 0; i < r.size(); ++i) {
    GateHash g = HashIntoGate(r[i], word_mask);
    if ((gate[g.word] & g.probe) != g.probe) continue;  // definitely live
    std::size_t ei = kernels.lower_bound(erases.data(), erases.size(), r[i]);
    if (ei < erases.size() && erases[ei] == r[i]) hits.push_back(i);
  }
  // Swap-remove back to front so earlier recorded indices stay valid.
  std::size_t end = r.size();
  for (std::size_t j = hits.size(); j > 0; --j) {
    r[hits[j - 1]] = r[--end];
  }
  r.resize(end);
}

ElemList UnionInsertBuffers(std::span<const DeltaSnapshot* const> deltas) {
  ElemList out;
  std::size_t contributing = 0;
  for (const DeltaSnapshot* delta : deltas) {
    std::span<const Elem> inserts = delta->insert_span();
    if (!inserts.empty()) ++contributing;
    out.insert(out.end(), inserts.begin(), inserts.end());
  }
  // Each buffer is already sorted and duplicate-free; only a genuine
  // multi-set union needs the sort.
  if (contributing > 1) {
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return out;
}

void FilterByEffectiveMembership(ElemList* candidates,
                                 std::span<const Elem> base,
                                 const DeltaSnapshot& delta,
                                 const simd::Kernels& kernels) {
  ElemList& c = *candidates;
  // Candidates arrive sorted, and so are all three membership tiers, so
  // every cursor only moves forward: the delta tiers (comparable in size
  // to the candidate list) advance linearly, and the large base is only
  // gallop-probed for candidates the insert buffer did not already admit.
  // The common case — a candidate from this very set's insert buffer —
  // resolves with two linear-cursor compares and never touches base.
  std::span<const Elem> erases = delta.erase_span();
  std::span<const Elem> inserts = delta.insert_span();
  std::size_t write = 0, ei = 0, ii = 0, bi = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    Elem x = c[i];
    while (ei < erases.size() && erases[ei] < x) ++ei;
    if (ei < erases.size() && erases[ei] == x) continue;  // tombstoned
    while (ii < inserts.size() && inserts[ii] < x) ++ii;
    if (ii < inserts.size() && inserts[ii] == x) {
      c[write++] = x;  // pending insert
      continue;
    }
    if (bi < base.size()) {
      bi = kernels.gallop_ge(base.data(), base.size(), bi, x);
      if (bi < base.size() && base[bi] == x) c[write++] = x;
    }
  }
  c.resize(write);
}

void IntersectWithSortedSpan(ElemList* candidates, std::span<const Elem> elems,
                             const simd::Kernels& kernels) {
  // Candidates are few (one per pending insert); the companion span can be
  // the whole set, so this is the skewed-pair kernel, filtering in place.
  ElemList& c = *candidates;
  c.resize(kernels.intersect_skewed(c.data(), c.size(), elems.data(),
                                    elems.size(), c.data()));
}

void MergeSortedDisjointInPlace(ElemList* result, std::span<const Elem> extra) {
  if (extra.empty()) return;
  ElemList& r = *result;
  std::size_t old_size = r.size();
  r.resize(old_size + extra.size());
  // Backward merge, so the in-place write never overtakes the read cursor.
  std::size_t ri = old_size;
  std::size_t xi = extra.size();
  std::size_t write = r.size();
  while (xi > 0) {
    if (ri > 0 && r[ri - 1] > extra[xi - 1]) {
      r[--write] = r[--ri];
    } else {
      r[--write] = extra[--xi];
    }
  }
}

double DeltaFixupMicros(std::size_t num_sets, double est_result,
                        std::size_t total_erases, std::size_t total_inserts,
                        std::size_t max_base_size, const CostConstants& cost) {
  if (total_erases == 0 && total_inserts == 0) return 0.0;
  double micros = 0.0;
  if (total_erases > 0) {
    // Tombstone subtraction: a merge walk over the result plus galloping
    // hops across the tombstone arrays.
    micros += 1e-3 * cost.merge_ns *
              (est_result + static_cast<double>(total_erases));
  }
  if (total_inserts > 0) {
    // Candidate filtering: every candidate is probed in each of the k
    // sets with a log-cost galloping search.
    double probes = static_cast<double>(total_inserts) *
                    static_cast<double>(num_sets);
    double log_n = std::log2(2.0 + static_cast<double>(max_base_size));
    micros += 1e-3 * cost.gallop_ns * probes * log_n;
  }
  return micros;
}

}  // namespace fsi
