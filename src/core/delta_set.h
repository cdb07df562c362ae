// The sorted delta tier of a mutable prepared set (PR 6).
//
// A mutable set is published to readers as an immutable value,
// MutableSetState: the preprocessed *base* structure built by the engine's
// algorithm, the sorted base element array it was built from (a view of
// the structure's own array when it keeps one), and a DeltaSnapshot — a
// sorted insert buffer plus sorted erase tombstones.
// The logical ("effective") set is
//
//     effective = (base \ erases) ∪ inserts
//
// under three invariants the writer maintains on every transition:
//
//     inserts ∩ base  = ∅      (an insert of a base member is a no-op,
//                               unless it revokes a tombstone)
//     erases  ⊆ base           (erasing a non-member is a no-op)
//     inserts ∩ erases = ∅     (immediate: they partition around base)
//
// States are copy-on-write: Insert/Erase build a *new* DeltaSnapshot
// (O(|delta|) vector copy) and publish a new state; readers hold cheap
// shared_ptr copies, so a snapshot taken mid-query stays valid across any
// number of later mutations and compactions.  This file is the pure-value
// layer: state types, the writer-side transitions, and the query-time
// fixup algorithms that merge a delta into a base-intersection result via
// the SIMD kernel table.  The concurrency machinery (epochs, compaction,
// the writer lock) lives in api/epoch.h.

#ifndef FSI_CORE_DELTA_SET_H_
#define FSI_CORE_DELTA_SET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "core/algorithm.h"
#include "core/cost.h"
#include "simd/intersect_kernels.h"

namespace fsi {

/// The mutation tier of one mutable set: sorted insert buffer + sorted
/// erase tombstones, both immutable and shared (copy-on-write).  A null
/// pointer means "empty" (the common steady state after compaction).
struct DeltaSnapshot {
  std::shared_ptr<const ElemList> inserts;
  std::shared_ptr<const ElemList> erases;

  std::span<const Elem> insert_span() const {
    return inserts ? std::span<const Elem>(*inserts) : std::span<const Elem>();
  }
  std::span<const Elem> erase_span() const {
    return erases ? std::span<const Elem>(*erases) : std::span<const Elem>();
  }
  std::size_t size() const {
    return insert_span().size() + erase_span().size();
  }
  bool empty() const { return size() == 0; }
};

/// One published version of a mutable set.  Immutable once published;
/// readers copy the whole struct (a few shared_ptr/span/scalar fields)
/// under an epoch guard and then own a consistent snapshot outright.
///
/// The base is stored once.  When the structure keeps its sorted elements
/// (an uncompressed PlannedSet, a PlainSet — including one that aliases a
/// snapshot mapping) `base` views them and `structure` owns them;
/// otherwise (grouped structures such as ScanSet or HashBin's) `owned_base`
/// holds the array.
struct MutableSetState {
  /// The engine algorithm's structure over `base` (never null).
  std::shared_ptr<const PreprocessedSet> structure;
  /// The sorted element array `structure` was built from.
  std::span<const Elem> base;
  /// Owns `base` only when `structure` keeps no sorted elements; null
  /// otherwise.
  std::shared_ptr<const ElemList> owned_base;
  DeltaSnapshot delta;
  /// |effective| = |base| - |erases| + |inserts|.
  std::size_t live_size = 0;
  /// Monotone per-set version; bumped by every mutation and compaction.
  std::uint64_t version = 0;
};

/// Writer-side transition for Insert(value).  Returns the successor delta
/// when the effective set changes, std::nullopt for a no-op (value already
/// effective-present).  Pure: never mutates its inputs.
std::optional<DeltaSnapshot> DeltaInsert(std::span<const Elem> base,
                                         const DeltaSnapshot& delta,
                                         Elem value);

/// Writer-side transition for Erase(value); std::nullopt when value is not
/// effective-present.
std::optional<DeltaSnapshot> DeltaErase(std::span<const Elem> base,
                                        const DeltaSnapshot& delta,
                                        Elem value);

/// Membership in the effective set (sorted binary-search probes).
bool EffectiveContains(std::span<const Elem> base, const DeltaSnapshot& delta,
                       Elem value, const simd::Kernels& kernels);

/// Materializes the effective element list (base \ erases) ∪ inserts in
/// sorted order — the compaction rebuild input.
ElemList MergeEffective(std::span<const Elem> base, const DeltaSnapshot& delta);

/// Query-time fixup, step 1 (tombstones): removes every member of sorted
/// `erases` from `*result` in place.  The ordered variant is a two-cursor
/// linear merge (one compare per result element); the unordered variant
/// screens each element through a Bloom-style one-bit gate built from the
/// tombstones and only falls back to the vectorized lower_bound on a hit.
void SubtractSortedInPlace(ElemList* result, std::span<const Elem> erases);
void SubtractUnorderedInPlace(ElemList* result, std::span<const Elem> erases,
                              const simd::Kernels& kernels);

/// Query-time fixup, step 2a (candidates): the sorted duplicate-free union
/// of the insert buffers of all query sets.  Any element newly joining the
/// intersection must come from here — an element absent from every insert
/// buffer is in every effective set iff it is in every base, and then the
/// base intersection already found it.
ElemList UnionInsertBuffers(std::span<const DeltaSnapshot* const> deltas);

/// Query-time fixup, step 2b: filters `*candidates` in place to those in
/// the effective set (binary-search probes into base/delta).  Preserves
/// order.
void FilterByEffectiveMembership(ElemList* candidates,
                                 std::span<const Elem> base,
                                 const DeltaSnapshot& delta,
                                 const simd::Kernels& kernels);

/// Query-time fixup, step 2c: intersects sorted `*candidates` in place with
/// a sorted element span through the intersect_skewed kernel —
/// O(|candidates| · log) rather than a full O(|elems|) merge, which matters
/// because the candidate list is tiny next to a full set.
void IntersectWithSortedSpan(ElemList* candidates, std::span<const Elem> elems,
                             const simd::Kernels& kernels);

/// Query-time fixup, step 3: folds sorted `extra` (disjoint from *result)
/// into sorted `*result` by linear merge.
void MergeSortedDisjointInPlace(ElemList* result, std::span<const Elem> extra);

/// Cost-model hook: predicted microseconds of the delta fixup for a query
/// with `num_sets` input sets whose base intersection is estimated at
/// `est_result` elements, given the total tombstone and insert-buffer
/// volumes across the query's mutable sets.  Mirrors the shape of the
/// planner's step costs (core/cost.h): tombstone subtraction is a merge
/// walk, candidate filtering is num_sets galloping probes per candidate.
double DeltaFixupMicros(std::size_t num_sets, double est_result,
                        std::size_t total_erases, std::size_t total_inserts,
                        std::size_t max_base_size, const CostConstants& cost);

}  // namespace fsi

#endif  // FSI_CORE_DELTA_SET_H_
