// Compressed RanGroupScan (Section 4.1 + Appendix B).
//
// Three codecs over the same group-block format (Appendix B):
//   [unary |L^z|] [m image words, present only if |L^z| > 0] [elements]
// The registry structures keep the paper's m >= 1 images: the Algorithm-5
// scan below filters on them.  The planner's sets carry m = 0 — its
// g-space steps never read an image — plus a per-group header index.
//
//  * kLowbits — the paper's own scheme: since z = g_t(x) is the element's
//    position in the stream, only the low (b - t) bits of g(x) are stored,
//    at a *fixed* width.  Decoding is a shift-or, and an entire skipped
//    group costs one O(1) bit-cursor jump — this is why Lowbits wins
//    Figure 8 by a wide margin.
//  * kGamma / kDelta — the standard Elias codes ([23] p.116) over in-group
//    gaps.  Variable width: a filtered group must still be decoded (and
//    discarded) to find the next block, so decompression dominates.
//
// The stream is organized as fixed-size decode blocks: every kSkipStride-th
// group's bit offset is recorded in a skip directory built at encode time,
// so intersection can gallop over dead regions (the Algorithm-5 image
// filter frequently eliminates whole runs of groups) without touching the
// bits in between — for the Elias codecs this removes the
// decode-to-discard penalty for skipped strides.  Surviving blocks decode
// through the vectorized kernels in simd/decode_kernels.h (fixed-width
// unpack for Lowbits, gap prefix-sum for γ/δ), selected per algorithm
// instance with the standard "simd=auto|off" option.
//
// Online processing is Algorithm 5 run over k bit streams: group headers
// are consumed in z order (forward cursor + skip-directory jumps), images
// feed the memoized filter, and only surviving windows decode elements.
//
// The planner (api/planner.h) uses two g-space primitives instead:
// DecodeGvals (a whole stream to its ascending g-values) and FilterGvals
// (probe ascending candidate g-values group by group), so a query with a
// compressed input inverts only its results.  Both are one whole-call
// kernel of simd/decode_kernels.h (lowbits_decode / lowbits_filter).

#ifndef FSI_CORE_COMPRESSED_SCAN_H_
#define FSI_CORE_COMPRESSED_SCAN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "codec/bit_stream.h"
#include "core/algorithm.h"
#include "core/cost.h"
#include "hash/feistel.h"
#include "hash/universal_hash.h"
#include "simd/decode_kernels.h"
#include "util/bits.h"

namespace fsi {

enum class ScanCodec { kLowbits, kGamma, kDelta };

/// Preprocessed form: one bit stream of group blocks plus a skip directory
/// and, for the planner's Lowbits sets, a per-group header index.
class CompressedScanSet : public PreprocessedSet {
 public:
  /// Groups per decode block: one skip-directory entry (the absolute bit
  /// offset of the block's first group header) every kSkipStride groups.
  static constexpr std::uint64_t kSkipStride = simd::kLowbitsSkipStride;

  /// Encodes `set` with hashes.size() image words per non-empty group.
  /// `index_groups` (Lowbits only) records every group header's offset
  /// past its block's skip entry.
  CompressedScanSet(std::span<const Elem> set, const FeistelPermutation& g,
                    const WordHashFamily& hashes, int t, ScanCodec codec,
                    bool index_groups = false);

  std::size_t size() const override { return n_; }
  std::size_t SizeInWords() const override {
    return bits_.size() + skips_.size() + (group_offsets_.size() + 3) / 4 +
           2;
  }

  /// SizeInWords() of a Lowbits set without image words (m = 0) over n
  /// elements at resolution t of a 2^domain_bits universe — the one form
  /// whose stream length follows from n alone: 2^t + n * (1 + b - t)
  /// stream bits (unary group counts, then the low bits), ceil(2^t /
  /// kSkipStride) skips, 2^t 16-bit index entries when `index_groups`,
  /// and 2 words.
  static std::size_t LowbitsSizeInWordsFor(std::size_t n, int t,
                                           int domain_bits,
                                           bool index_groups);

  int t() const { return t_; }
  ScanCodec codec() const { return codec_; }
  /// Image words per non-empty group.
  int m() const { return m_; }
  const std::vector<std::uint64_t>& bits() const { return bits_; }
  std::size_t bit_count() const { return bit_count_; }
  /// Bit offset of group (i * kSkipStride)'s header, i per directory slot.
  const std::vector<std::uint64_t>& skips() const { return skips_; }
  /// Per group z: its header's bit offset past skips()[z / kSkipStride],
  /// or simd::kNoGroupOffset when that exceeds 16 bits.  Empty when the
  /// set was built without the index.
  const std::vector<std::uint16_t>& group_offsets() const {
    return group_offsets_;
  }
  /// Largest original element (0 for an empty set) — the planner's
  /// universe bound without decoding.
  Elem max_elem() const { return max_elem_; }

  /// The stream as the lowbits_* decode kernels read it.
  simd::LowbitsView View(int domain_bits) const;

  /// Rebuilds a set from snapshot parts (owning copies of the arrays).
  /// Runs the same full-stream validation as Validate(), deriving the
  /// group index on the way when `index_groups` is set (Lowbits only);
  /// throws storage::SnapshotError(kCorrupt) on any malformed input.
  static std::unique_ptr<CompressedScanSet> FromParts(
      std::size_t n, int t, ScanCodec codec, Elem max_elem,
      std::vector<std::uint64_t> bits, std::size_t bit_count,
      std::vector<std::uint64_t> skips, int m, int domain_bits,
      bool index_groups = false);

  /// Checked walk of the whole stream: m within 0..64, every read
  /// bounds-checked against bit_count, group lengths sum to n, skip
  /// directory matches the actual block offsets, the stream ends exactly
  /// at bit_count.  Throws storage::SnapshotError(kCorrupt) on violation.
  /// After this passes, the (assert-only) runtime decode paths cannot read
  /// out of bounds.  A non-null `group_offsets` receives the group index.
  void Validate(int domain_bits,
                std::vector<std::uint16_t>* group_offsets = nullptr) const;

 private:
  CompressedScanSet() = default;

  std::size_t n_ = 0;
  int t_ = 0;
  ScanCodec codec_ = ScanCodec::kLowbits;
  int m_ = 0;
  Elem max_elem_ = 0;
  std::vector<std::uint64_t> bits_;
  std::size_t bit_count_ = 0;
  std::vector<std::uint64_t> skips_;
  std::vector<std::uint16_t> group_offsets_;
};

class CompressedScanIntersection : public IntersectionAlgorithm {
 public:
  struct Options {
    std::uint64_t seed = 0xbe5466cf34e90c6cULL;  // matches RanGroupScan
    int universe_bits = 32;
    /// Section 4.1 uses m = 1 for the compressed experiments ("since we are
    /// interested in small structures here").  With m = 0 the native scan
    /// verifies every window (the planner's sets, which only the g-space
    /// primitives read, carry none); snapshots hold m <= 64.
    int m = 1;
    ScanCodec codec = ScanCodec::kLowbits;
    /// Lowbits sets record a per-group header index (FilterGvals reaches
    /// a group with one lookup instead of walking headers).
    bool group_index = false;
    /// Decode kernel tier (registry option key "simd": auto|off).  kAuto
    /// dispatches on the CPU at startup; kOff keeps the scalar loops.
    /// Output is bit-identical either way.
    simd::Mode simd = simd::Mode::kAuto;
  };

  CompressedScanIntersection() : CompressedScanIntersection(Options()) {}
  explicit CompressedScanIntersection(const Options& options);

  /// Decodes `set`'s whole stream into out[0, set.size()) in ascending
  /// g-order: the g-values themselves, no g^-1 and no sort.  Every codec,
  /// any m; `set` must come from an instance with this permutation.
  void DecodeGvals(const CompressedScanSet& set, std::uint32_t* out) const;

  /// Writes to `out`, in order, the g-values of `candidates` (ascending)
  /// that are members of `set`, and returns how many.  Each candidate's
  /// group is reached through the group index (without one, or past its
  /// 16-bit range, through the skip directory and at most kSkipStride - 1
  /// headers walked past the block start); a group's fields are unpacked
  /// once and compared with the candidates' low bits, and groups no
  /// candidate falls in are never read.  Lowbits only (other codecs throw
  /// std::invalid_argument).  `out` may alias candidates.data().
  std::size_t FilterGvals(const CompressedScanSet& set,
                          std::span<const std::uint32_t> candidates,
                          std::uint32_t* out) const;

  /// Replaces every g-value in `gvals` by its element g^-1(v), in place:
  /// the end of a g-space chain, one permute kernel call.
  void InvertGvals(std::span<std::uint32_t> gvals) const {
    decode_->permute(g_, /*inverse=*/true, gvals.data(), gvals.size());
  }

  /// Planner cost hook (core/cost.h): every surviving block must be
  /// decoded before it can be scanned, so the per-element constant is the
  /// calibrated decode+scan rate —
  /// cost = decode_ns * (n1 + n2) + scan_result_ns * r.
  static double StepCost(const StepCostQuery& q, const CostConstants& c);

  std::string_view name() const override { return name_; }

  std::unique_ptr<PreprocessedSet> Preprocess(
      std::span<const Elem> set) const override;

  /// SizeInWords() of Preprocess's structure for an n-element set,
  /// without building it.  Lowbits with m = 0 only (the planner's form;
  /// image words depend on how many groups are non-empty): any other
  /// options throw std::logic_error.
  std::size_t PreprocessWords(std::size_t n) const;

  void Intersect(std::span<const PreprocessedSet* const> sets,
                 ElemList* out) const override;

  void IntersectUnordered(std::span<const PreprocessedSet* const> sets,
                          ElemList* out) const override;

  const FeistelPermutation& permutation() const { return g_; }

 private:
  /// The resolution Preprocess gives an n-element set.
  int Resolution(std::size_t n) const;

  Options options_;
  std::string name_;
  FeistelPermutation g_;
  WordHashFamily hashes_;
  const simd::DecodeKernels* decode_;
};

}  // namespace fsi

#endif  // FSI_CORE_COMPRESSED_SCAN_H_
