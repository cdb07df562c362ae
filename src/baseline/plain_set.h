// PlainSet: the trivial preprocessed form shared by the comparison-based
// baselines (Merge, SvS, Adaptive, BaezaYates, SmallAdaptive).
//
// It is exactly an uncompressed inverted-index posting list: the sorted
// element array, stored contiguously ("we also store postings in consecutive
// memory addresses to speed up parallel scans", Section 4 Implementation).

#ifndef FSI_BASELINE_PLAIN_SET_H_
#define FSI_BASELINE_PLAIN_SET_H_

#include <memory>
#include <span>
#include <vector>

#include "core/algorithm.h"
#include "storage/layout.h"

namespace fsi {

/// A sorted element array; the baseline "structure" and the space yardstick
/// (the paper reports every structure's size relative to this one).
///
/// Storage is a storage::FlatArray so the same type serves freshly
/// prepared sets (owning) and snapshot-loaded ones (borrowing a span of
/// the mmap'ed file — see docs/PERSISTENCE.md).
class PlainSet : public PreprocessedSet {
 public:
  explicit PlainSet(std::span<const Elem> set)
      : elems_(std::vector<Elem>(set.begin(), set.end())) {}

  std::size_t size() const override { return elems_.size(); }

  std::size_t SizeInWords() const override {
    return SizeInWordsFor(elems_.size());
  }

  /// SizeInWords() of an n-element PlainSet.
  static std::size_t SizeInWordsFor(std::size_t n) {
    return (n * sizeof(Elem) + 7) / 8;
  }

  std::span<const Elem> elems() const { return elems_.view(); }

  /// Appends the element array to `payload` and fills the elems ref (and
  /// kind, unless the caller is composing a larger record).
  void WriteFlat(storage::PayloadWriter& payload,
                 storage::SetRecord& record) const {
    record.kind = static_cast<std::uint32_t>(storage::SetKind::kPlain);
    record.elems = payload.Append(elems_.view());
  }

  /// Reconstructs a PlainSet whose span aliases `payload` (zero-copy).
  /// The backing bytes must outlive the returned set.
  static std::unique_ptr<PlainSet> ViewFlat(
      std::span<const std::byte> payload, const storage::SetRecord& record) {
    return std::unique_ptr<PlainSet>(new PlainSet(storage::FlatArray<Elem>::View(
        storage::ResolveSpan<Elem>(payload, record.elems, "PlainSet.elems"))));
  }

 private:
  explicit PlainSet(storage::FlatArray<Elem> elems)
      : elems_(std::move(elems)) {}

  storage::FlatArray<Elem> elems_;
};

/// Sorts a k-way query by set size ascending (the adaptive baselines and the
/// k-way generalizations of [5] all process sets smallest-first).
std::vector<const PlainSet*> SortBySize(
    std::span<const PreprocessedSet* const> sets);

/// Galloping (exponential + binary) search: index of the first element
/// >= x in sorted[lo, n), expected O(log distance).  The workhorse of the
/// adaptive algorithms [12, 13, 1, 2, 5].
std::size_t GallopGreaterEqual(std::span<const Elem> sorted, std::size_t lo,
                               Elem x);

}  // namespace fsi

#endif  // FSI_BASELINE_PLAIN_SET_H_
