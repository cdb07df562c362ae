// RanGroupScan: the "simple" randomized-partition algorithm (Section 3.3,
// Algorithm 5) — the paper's best performer in practice.
//
// Pre-processing (Section 3.3.1, Figure 3): each set is partitioned once by
// g_{t_i} with t_i = ceil(log2(n_i / sqrt(w))); per group we keep m word
// images h_1(L^z), ..., h_m(L^z) and the group's elements.  No inverted
// mappings — "trading off a complex O(1)-access for a simple scan over a
// short block of data".
//
// Online (Algorithm 5): for each finest group id z_k, AND the m image words
// across the k sets; if any of the m ANDs is zero the combination provably
// has an empty intersection and is skipped (successful filtering,
// Lemmas A.1/A.3); otherwise the k groups are intersected by a plain linear
// merge.  Partial ANDs are memoized across shared prefixes (A.5.3), giving
// the O(mn/sqrt(w)) filtering term of Theorem 3.9.
//
// Implementation notes:
//  * We store g-values (ascending) rather than raw elements; g is shared
//    across sets and bijective, so merging on g-values is exact and the
//    original ids are recovered via g^{-1} only for the r results.
//  * The paper's Figure-3 block layout is kept as structure-of-arrays
//    (group offsets / image words / value array) — same content, same
//    sequential access pattern, friendlier typed accessors.

#ifndef FSI_CORE_RAN_GROUP_SCAN_H_
#define FSI_CORE_RAN_GROUP_SCAN_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/algorithm.h"
#include "core/cost.h"
#include "hash/feistel.h"
#include "hash/universal_hash.h"
#include "simd/intersect_kernels.h"
#include "storage/layout.h"
#include "util/bits.h"

namespace fsi {

/// The preprocessed form of one set for RanGroupScan.
class ScanSet : public PreprocessedSet {
 public:
  /// Builds the structure; t is the resolution (number of prefix bits).
  ScanSet(std::span<const Elem> set, const FeistelPermutation& g,
          const WordHashFamily& hashes, int t);

  std::size_t size() const override { return gvals_.size(); }
  std::size_t SizeInWords() const override {
    return SizeInWordsFor(gvals_.size(), t_, m_);
  }

  /// SizeInWords() of a ScanSet over n elements at resolution t with m
  /// image words per group: n g-values, 2^t + 1 group starts and 2^t * m
  /// images — a function of n, t and m alone.
  static std::size_t SizeInWordsFor(std::size_t n, int t, int m);

  int t() const { return t_; }
  int m() const { return m_; }
  std::uint64_t num_groups() const { return std::uint64_t{1} << t_; }
  std::uint64_t NumGroups() const override { return num_groups(); }

  /// Half-open position range of group z.
  std::pair<std::uint32_t, std::uint32_t> GroupRange(std::uint64_t z) const {
    return {group_start_[z], group_start_[z + 1]};
  }

  /// j-th hash image word of group z (j in [0, m)).
  Word Image(std::uint64_t z, int j) const {
    return images_[z * static_cast<std::uint64_t>(m_) +
                   static_cast<std::uint64_t>(j)];
  }

  /// Ascending g-values of all elements.
  std::span<const std::uint32_t> gvals() const { return gvals_.view(); }

  /// The two other arrays, for serialization and inspection.
  std::span<const std::uint32_t> group_starts() const {
    return group_start_.view();
  }
  std::span<const Word> images() const { return images_.view(); }

  /// Appends the three arrays to `payload` and fills the record's refs,
  /// kind (kScan), t and m.
  void WriteFlat(storage::PayloadWriter& payload,
                 storage::SetRecord& record) const;

  /// Reconstructs a ScanSet whose spans alias `payload` (zero-copy; the
  /// backing bytes must outlive it).  Validates shape invariants (t/m
  /// domain, array sizes, monotone offsets) and throws
  /// storage::SnapshotError(kCorrupt) on violation.
  static std::unique_ptr<ScanSet> ViewFlat(std::span<const std::byte> payload,
                                           const storage::SetRecord& record);

 private:
  ScanSet(int t, int m, storage::FlatArray<std::uint32_t> group_start,
          storage::FlatArray<Word> images,
          storage::FlatArray<std::uint32_t> gvals);

  /// Throws storage::SnapshotError(kCorrupt) unless the arrays form a
  /// plausible structure (cheap shape checks, not a content audit).
  void Validate() const;

  int t_;
  int m_;
  storage::FlatArray<std::uint32_t> group_start_;  // 2^t + 1
  storage::FlatArray<Word> images_;                // 2^t * m, group-major
  storage::FlatArray<std::uint32_t> gvals_;        // ascending
};

class RanGroupScanIntersection : public IntersectionAlgorithm {
 public:
  struct Options {
    /// Seed for the shared permutation g and hash family h_1..h_m.
    std::uint64_t seed = 0xbe5466cf34e90c6cULL;
    /// Even number of bits covering the element universe.
    int universe_bits = 32;
    /// Number of hash images per group; the paper uses m = 4 by default and
    /// m = 2 for the multi-keyword and compressed experiments.
    int m = 4;
    /// Disable the A.5.3 optimizations (prefix-AND memoization, prefix
    /// skipping, and the aligned fast path) — ablation only.  Every z_k then
    /// recomputes all k*m partial ANDs and advances one step at a time.
    bool memoize = true;
    /// Target expected group width: the resolution is chosen as
    /// t_i = ceil(log2(n_i / group_width)).  The paper's choice is
    /// sqrt(w) = 8; wider groups trade filtering effectiveness for fewer
    /// image words (registry option key "w").
    std::size_t group_width = kSqrtWordBits;
    /// Kernel tier for the two-set group merges (registry option key
    /// "simd": auto|off).  kAuto dispatches on the CPU at startup; kOff
    /// keeps the scalar loops.  Output is bit-identical either way.
    simd::Mode simd = simd::Mode::kAuto;
  };

  RanGroupScanIntersection() : RanGroupScanIntersection(Options()) {}
  explicit RanGroupScanIntersection(const Options& options);

  /// Planner cost hook (core/cost.h): the Theorem 3.9 bound
  /// O(mn/sqrt(w) + r) with the m/sqrt(w) factor folded into the calibrated
  /// constant — cost = scan_ns * (n1 + n2) + scan_result_ns * r.
  static double StepCost(const StepCostQuery& q, const CostConstants& c);

  std::string_view name() const override { return name_; }

  std::unique_ptr<PreprocessedSet> Preprocess(
      std::span<const Elem> set) const override;

  /// SizeInWords() of Preprocess's structure for an n-element set,
  /// without building it.
  std::size_t PreprocessWords(std::size_t n) const {
    return ScanSet::SizeInWordsFor(n, Resolution(n), hashes_.size());
  }

  void Intersect(std::span<const PreprocessedSet* const> sets,
                 ElemList* out) const override;

  void IntersectUnordered(std::span<const PreprocessedSet* const> sets,
                          ElemList* out) const override;

  const FeistelPermutation& permutation() const { return g_; }
  const WordHashFamily& hashes() const { return hashes_; }
  int m() const { return options_.m; }

 private:
  /// The resolution Preprocess gives an n-element set.
  int Resolution(std::size_t n) const;

  Options options_;
  std::string name_;
  FeistelPermutation g_;
  WordHashFamily hashes_;
  const simd::Kernels* kernels_;
};

}  // namespace fsi

#endif  // FSI_CORE_RAN_GROUP_SCAN_H_
