// Common interface for all set-intersection algorithms.
//
// The paper's framework (Section 3, "Framework") separates a pre-processing
// stage — each set is reorganised once and annotated with index structures —
// from an online stage that intersects k >= 2 preprocessed sets.  Every
// algorithm in this library (the paper's four contributions, their
// compressed variants, and all nine competitor baselines) implements the
// interface below so the test suite, the benchmark harness and the examples
// can treat them uniformly.

#ifndef FSI_CORE_ALGORITHM_H_
#define FSI_CORE_ALGORITHM_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace fsi {

/// Element (document id) type.  The paper's experiments draw ids from
/// [0, 2*10^8]; 32 bits cover every workload here.
using Elem = std::uint32_t;

/// A sorted, duplicate-free list of elements — the canonical input format
/// (what an inverted index stores as a posting list).
using ElemList = std::vector<Elem>;

/// Seed every randomized algorithm derives its hash functions from when
/// the caller does not provide one (AlgorithmRegistry::Create and
/// EngineOptions both default to this).
inline constexpr std::uint64_t kDefaultAlgorithmSeed = 0x6a09e667f3bcc908ULL;

/// Validates that `set` is strictly increasing; throws std::invalid_argument
/// otherwise.  O(n).  Called by fsi::Engine::Prepare when its
/// ValidationPolicy enables full validation, and by
/// DebugCheckSortedUnique in Debug builds.
inline void CheckSortedUnique(std::span<const Elem> set,
                              std::string_view algorithm) {
  for (std::size_t i = 1; i < set.size(); ++i) {
    if (set[i] <= set[i - 1]) {
      throw std::invalid_argument(
          std::string(algorithm) +
          ": input set must be sorted and duplicate-free");
    }
  }
}

/// Debug-gated input validation, called by every Preprocess implementation.
/// Full O(n) validation in Debug builds; a no-op in Release, where the
/// fsi::Engine's ValidationPolicy decides whether inputs are checked
/// (callers of the raw algorithm API are trusted there).
inline void DebugCheckSortedUnique(std::span<const Elem> set,
                                   std::string_view algorithm) {
#ifndef NDEBUG
  CheckSortedUnique(set, algorithm);
#else
  (void)set;
  (void)algorithm;
#endif
}

/// A per-set structure produced by pre-processing.  Concrete algorithms
/// subclass this; the online stage downcasts to its own type.
class PreprocessedSet {
 public:
  virtual ~PreprocessedSet() = default;

  /// Number of elements in the underlying set.
  virtual std::size_t size() const = 0;

  /// Total size of the structure in 64-bit machine words, including the
  /// element data itself — the measure used by the paper's "Size of the
  /// Data Structure" experiment.
  virtual std::size_t SizeInWords() const = 0;

  /// Number of groups in the partition-based structures (2^t for the
  /// randomized-partition algorithms); 0 when the structure has no group
  /// decomposition.  Feeds the Engine's per-query statistics.
  virtual std::uint64_t NumGroups() const { return 0; }
};

/// An intersection algorithm: a named pair of (Preprocess, Intersect).
///
/// Thread-compatibility: a const IntersectionAlgorithm and const
/// PreprocessedSets may be shared across threads; Intersect only mutates
/// `out` and per-call scratch.
class IntersectionAlgorithm {
 public:
  virtual ~IntersectionAlgorithm() = default;

  /// Human-readable name matching the paper's figures (e.g. "RanGroupScan").
  virtual std::string_view name() const = 0;

  /// Builds this algorithm's structure for one set.  `set` must be sorted
  /// and duplicate-free.  O(n log n) time, O(n) space (Theorems 3.4, 3.8,
  /// 3.10, 3.11).
  virtual std::unique_ptr<PreprocessedSet> Preprocess(
      std::span<const Elem> set) const = 0;

  /// Computes the intersection of `sets` (k >= 1; every pointer must come
  /// from this algorithm's Preprocess).  The result is sorted ascending and
  /// appended to an empty `out`.
  virtual void Intersect(std::span<const PreprocessedSet* const> sets,
                         ElemList* out) const = 0;

  /// Same result *set*, but in unspecified order.  The paper's partition-
  /// based algorithms emit the union of per-group intersections in
  /// permutation order; forcing document-id order costs an extra
  /// O(r log r), which dominates exactly in the large-r regime Figure 5
  /// studies.  The benchmark harness times this entry point (as the paper
  /// does); callers needing document order use Intersect().
  virtual void IntersectUnordered(std::span<const PreprocessedSet* const> sets,
                                  ElemList* out) const {
    Intersect(sets, out);
  }

  /// Whether the algorithm supports k-way queries (IntGroup, e.g., is
  /// specified for k == 2 only; see Section 3.1 "Limitations").
  virtual std::size_t max_query_sets() const { return SIZE_MAX; }

  /// Convenience wrapper: preprocesses and intersects plain lists in one
  /// call (used by tests and examples; benchmarks pre-build the structures).
  ElemList IntersectLists(std::span<const ElemList> lists) const;
};

/// Downcast helper with a debug-friendly failure mode.
template <typename T>
const T& As(const PreprocessedSet& set) {
  return static_cast<const T&>(set);
}

}  // namespace fsi

#endif  // FSI_CORE_ALGORITHM_H_
