#include "core/compressed_scan.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "codec/elias.h"
#include "core/g_order.h"
#include "storage/snapshot.h"
#include "util/rng.h"

namespace fsi {

namespace {

/// A group-index entry: `header`'s offset past its block's skip entry,
/// or kNoGroupOffset when 16 bits cannot hold it.
std::uint16_t GroupOffset(std::uint64_t header, std::uint64_t block_start) {
  const std::uint64_t offset = header - block_start;
  return offset < simd::kNoGroupOffset ? static_cast<std::uint16_t>(offset)
                                       : simd::kNoGroupOffset;
}

}  // namespace

CompressedScanSet::CompressedScanSet(std::span<const Elem> set,
                                     const FeistelPermutation& g,
                                     const WordHashFamily& hashes, int t,
                                     ScanCodec codec, bool index_groups)
    : n_(set.size()),
      t_(t),
      codec_(codec),
      m_(hashes.size()),
      max_elem_(set.empty() ? 0 : set.back()) {
  const std::vector<std::uint32_t> gvals = GOrder(set, g, "CompressedScan");

  const int b = g.domain_bits();
  const int low_bits = b - t_;
  const std::uint64_t low_mask =
      low_bits >= 64 ? ~std::uint64_t{0}
                     : ((std::uint64_t{1} << low_bits) - 1);
  const bool indexed = index_groups && codec_ == ScanCodec::kLowbits;
  BitWriter w;
  std::vector<Word> images(static_cast<std::size_t>(m_));
  std::size_t i = 0;
  for (std::uint64_t z = 0; z < (std::uint64_t{1} << t_); ++z) {
    // Decode-block boundary: record where this stride of groups starts.
    if (z % kSkipStride == 0) skips_.push_back(w.BitCount());
    if (indexed) {
      group_offsets_.push_back(GroupOffset(w.BitCount(), skips_.back()));
    }
    std::uint64_t win_hi = (z + 1) << low_bits;
    std::size_t begin = i;
    while (i < n_ && gvals[i] < win_hi) ++i;
    std::uint32_t len = static_cast<std::uint32_t>(i - begin);
    w.WriteUnary(len);
    if (len == 0) continue;
    // m image words.
    std::fill(images.begin(), images.end(), Word{0});
    for (std::size_t e = begin; e < i; ++e) {
      hashes.AccumulateImages(gvals[e], images.data());
    }
    for (Word img : images) w.Write(img, 64);
    // Elements.
    if (codec_ == ScanCodec::kLowbits) {
      for (std::size_t e = begin; e < i; ++e) {
        w.Write(gvals[e] & low_mask, low_bits);
      }
    } else {
      std::uint64_t prev = (z << low_bits);  // window base; first gap >= 1?
      for (std::size_t e = begin; e < i; ++e) {
        // Gap = gval - prev + 1 for the first element (gval may equal the
        // base), then strictly positive diffs thereafter.
        std::uint64_t gap = gvals[e] - prev + (e == begin ? 1 : 0);
        if (codec_ == ScanCodec::kGamma) {
          WriteGamma(w, gap);
        } else {
          WriteDelta(w, gap);
        }
        prev = gvals[e];
      }
    }
  }
  bit_count_ = w.BitCount();
  bits_ = w.TakeBuffer();
}

std::size_t CompressedScanSet::LowbitsSizeInWordsFor(std::size_t n, int t,
                                                     int domain_bits,
                                                     bool index_groups) {
  const std::uint64_t groups = std::uint64_t{1} << t;
  const std::uint64_t bits =
      groups + n * static_cast<std::uint64_t>(1 + domain_bits - t);
  return static_cast<std::size_t>(
      (bits + 63) / 64 + (groups + kSkipStride - 1) / kSkipStride +
      (index_groups ? (groups + 3) / 4 : 0) + 2);
}

namespace {

[[noreturn]] void CorruptStream(const char* what) {
  throw storage::SnapshotError(storage::SnapshotErrorCode::kCorrupt,
                               std::string("snapshot: compressed set: ") +
                                   what);
}

/// Bounds-checked unary read over untrusted bits: false when the
/// terminating 1-bit lies at or past bit_count.
bool ReadUnaryChecked(const std::uint64_t* data, std::size_t bit_count,
                      std::size_t* pos, std::uint64_t* out) {
  std::uint64_t n = 0;
  std::size_t p = *pos;
  while (true) {
    if (p >= bit_count) return false;
    std::size_t word = p >> 6;
    int offset = static_cast<int>(p & 63);
    std::uint64_t chunk = data[word] << offset;
    if (chunk == 0) {
      n += static_cast<std::uint64_t>(64 - offset);
      p += static_cast<std::size_t>(64 - offset);
      continue;
    }
    int zeros = std::countl_zero(chunk);
    if (p + static_cast<std::size_t>(zeros) >= bit_count) return false;
    *pos = p + static_cast<std::size_t>(zeros) + 1;
    *out = n + static_cast<std::uint64_t>(zeros);
    return true;
  }
}

bool ReadBitsChecked(BitReader* r, int bits, std::uint64_t* out) {
  if (r->position() + static_cast<std::size_t>(bits) > r->bit_count()) {
    return false;
  }
  *out = r->Read(bits);
  return true;
}

/// Checked γ/δ gap read; rejects length prefixes a 32-bit universe cannot
/// produce (so no shift is ever UB and no gap overflows the window math).
bool ReadGapChecked(const std::uint64_t* data, BitReader* r, ScanCodec codec,
                    std::uint64_t* out) {
  std::size_t pos = r->position();
  std::uint64_t n = 0;
  if (!ReadUnaryChecked(data, r->bit_count(), &pos, &n)) return false;
  r->SeekTo(pos);
  if (codec == ScanCodec::kDelta) {
    // δ: the unary value codes γ(len+1); recover len = 2^n | low - 1.
    if (n > 6) return false;  // γ(len+1) with len <= 33 needs n <= 6
    std::uint64_t low = 0;
    if (n > 0 && !ReadBitsChecked(r, static_cast<int>(n), &low)) return false;
    n = ((std::uint64_t{1} << n) | low) - 1;
  }
  if (n > 33) return false;  // gaps fit in 33 bits for a 32-bit universe
  std::uint64_t low = 0;
  if (n > 0 && !ReadBitsChecked(r, static_cast<int>(n), &low)) return false;
  *out = (std::uint64_t{1} << n) | low;
  return true;
}

}  // namespace

void CompressedScanSet::Validate(
    int domain_bits, std::vector<std::uint16_t>* group_offsets) const {
  if (t_ < 0 || t_ > domain_bits || domain_bits > 32) {
    CorruptStream("resolution outside the permutation domain");
  }
  if (m_ < 0 || m_ > 64) CorruptStream("implausible image count");
  if (bit_count_ > bits_.size() * 64) {
    CorruptStream("bit count exceeds backing words");
  }
  const std::uint64_t num_groups = std::uint64_t{1} << t_;
  const std::size_t expect_skips =
      static_cast<std::size_t>((num_groups + kSkipStride - 1) / kSkipStride);
  if (skips_.size() != expect_skips) {
    CorruptStream("skip directory size mismatch");
  }
  const int low_bits = domain_bits - t_;
  if (group_offsets != nullptr) {
    group_offsets->clear();
    if (codec_ == ScanCodec::kLowbits) {
      group_offsets->reserve(static_cast<std::size_t>(num_groups));
    } else {
      group_offsets = nullptr;
    }
  }
  BitReader r(bits_.data(), bit_count_);
  std::uint64_t total = 0;
  for (std::uint64_t z = 0; z < num_groups; ++z) {
    if (z % kSkipStride == 0 && skips_[z / kSkipStride] != r.position()) {
      CorruptStream("skip pointer does not match block offset");
    }
    if (group_offsets != nullptr) {
      group_offsets->push_back(
          GroupOffset(r.position(), skips_[z / kSkipStride]));
    }
    std::size_t pos = r.position();
    std::uint64_t len = 0;
    if (!ReadUnaryChecked(bits_.data(), bit_count_, &pos, &len)) {
      CorruptStream("truncated group header");
    }
    r.SeekTo(pos);
    if (len == 0) continue;
    total += len;
    if (total > n_) CorruptStream("group lengths exceed set size");
    for (int j = 0; j < m_; ++j) {
      std::uint64_t img = 0;
      if (!ReadBitsChecked(&r, 64, &img)) CorruptStream("truncated images");
    }
    if (codec_ == ScanCodec::kLowbits) {
      std::uint64_t want = len * static_cast<std::uint64_t>(low_bits);
      if (r.position() + want > bit_count_) {
        CorruptStream("truncated element block");
      }
      r.Skip(static_cast<std::size_t>(want));
    } else {
      for (std::uint64_t e = 0; e < len; ++e) {
        std::uint64_t gap = 0;
        if (!ReadGapChecked(bits_.data(), &r, codec_, &gap)) {
          CorruptStream("malformed gap code");
        }
      }
    }
  }
  if (total != n_) CorruptStream("group lengths do not sum to set size");
  if (r.position() != bit_count_) CorruptStream("trailing bits after stream");
}

std::unique_ptr<CompressedScanSet> CompressedScanSet::FromParts(
    std::size_t n, int t, ScanCodec codec, Elem max_elem,
    std::vector<std::uint64_t> bits, std::size_t bit_count,
    std::vector<std::uint64_t> skips, int m, int domain_bits,
    bool index_groups) {
  auto set = std::unique_ptr<CompressedScanSet>(new CompressedScanSet());
  set->n_ = n;
  set->t_ = t;
  set->codec_ = codec;
  set->m_ = m;
  set->max_elem_ = max_elem;
  set->bits_ = std::move(bits);
  set->bit_count_ = bit_count;
  set->skips_ = std::move(skips);
  set->Validate(domain_bits, index_groups ? &set->group_offsets_ : nullptr);
  return set;
}

simd::LowbitsView CompressedScanSet::View(int domain_bits) const {
  simd::LowbitsView v;
  v.words = bits_.data();
  v.n_words = bits_.size();
  v.n = n_;
  v.t = t_;
  v.low_bits = domain_bits - t_;
  v.image_bits = 64 * static_cast<std::size_t>(m_);
  v.skips = skips_.data();
  v.group_offsets = group_offsets_.empty() ? nullptr : group_offsets_.data();
  return v;
}

namespace {

int ImageCount(int m) {
  if (m < 0) throw std::invalid_argument("CompressedScan: m must be >= 0");
  return m;
}

}  // namespace

CompressedScanIntersection::CompressedScanIntersection(const Options& options)
    : options_(options),
      g_(options.universe_bits, SplitMix64(options.seed).Next()),
      hashes_(ImageCount(options.m),
              SplitMix64(options.seed ^ 0xc0ac29b7c97c50ddULL).Next()),
      decode_(&simd::SelectDecode(options.simd)) {
  switch (options.codec) {
    case ScanCodec::kLowbits:
      name_ = "RanGroupScan_Lowbits";
      break;
    case ScanCodec::kGamma:
      name_ = "RanGroupScan_Gamma";
      break;
    case ScanCodec::kDelta:
      name_ = "RanGroupScan_Delta";
      break;
  }
}

double CompressedScanIntersection::StepCost(const StepCostQuery& q,
                                            const CostConstants& c) {
  return c.decode_ns * static_cast<double>(q.small_size + q.large_size) +
         c.scan_result_ns * q.est_result;
}

int CompressedScanIntersection::Resolution(std::size_t n) const {
  int t = 0;
  if (n > kSqrtWordBits) {
    t = CeilLog2((n + kSqrtWordBits - 1) / kSqrtWordBits);
  }
  return std::min(t, g_.domain_bits());
}

std::unique_ptr<PreprocessedSet> CompressedScanIntersection::Preprocess(
    std::span<const Elem> set) const {
  return std::make_unique<CompressedScanSet>(set, g_, hashes_,
                                             Resolution(set.size()),
                                             options_.codec,
                                             options_.group_index);
}

std::size_t CompressedScanIntersection::PreprocessWords(std::size_t n) const {
  if (options_.codec != ScanCodec::kLowbits || hashes_.size() != 0) {
    throw std::logic_error(
        "CompressedScan: sizes follow from n only for Lowbits with m = 0");
  }
  return CompressedScanSet::LowbitsSizeInWordsFor(
      n, Resolution(n), g_.domain_bits(), options_.group_index);
}

void CompressedScanIntersection::DecodeGvals(const CompressedScanSet& set,
                                             std::uint32_t* out) const {
  if (set.codec() == ScanCodec::kLowbits) {
    decode_->lowbits_decode(set.View(g_.domain_bits()), out);
    return;
  }
  // γ/δ: gap reads are inherently serial; the gap -> absolute conversion
  // vectorizes.  The first gap of a group was written one high (the
  // element may equal the window base).
  const std::size_t n = set.size();
  const int low_bits = g_.domain_bits() - set.t();
  const std::uint64_t num_groups = std::uint64_t{1} << set.t();
  const std::size_t image_bits = 64 * static_cast<std::size_t>(set.m());
  std::size_t written = 0;
  BitReader reader(set.bits().data(), set.bit_count());
  for (std::uint64_t z = 0; z < num_groups && written < n; ++z) {
    const std::size_t len = static_cast<std::size_t>(reader.ReadUnary());
    if (len == 0) continue;
    reader.Skip(image_bits);
    std::uint32_t* group = out + written;
    for (std::size_t e = 0; e < len; ++e) {
      group[e] = static_cast<std::uint32_t>(set.codec() == ScanCodec::kGamma
                                                ? ReadGamma(reader)
                                                : ReadDelta(reader));
    }
    group[0] -= 1;
    decode_->prefix_sum(group, len, static_cast<std::uint32_t>(z << low_bits));
    written += len;
  }
}

std::size_t CompressedScanIntersection::FilterGvals(
    const CompressedScanSet& set, std::span<const std::uint32_t> candidates,
    std::uint32_t* out) const {
  if (set.codec() != ScanCodec::kLowbits) {
    throw std::invalid_argument("CompressedScan: FilterGvals needs Lowbits");
  }
  return decode_->lowbits_filter(set.View(g_.domain_bits()),
                                 candidates.data(), candidates.size(), out);
}

namespace {

/// A forward-only cursor over one set's block stream.  Jumps over whole
/// strides of groups through the skip directory; within a stride it walks
/// group headers sequentially.
class GroupCursor {
 public:
  GroupCursor(const CompressedScanSet& set, int domain_bits,
              const simd::DecodeKernels* decode)
      : set_(set),
        reader_(set.bits().data(), set.bit_count()),
        decode_(decode),
        m_(set.m()),
        low_bits_(domain_bits - set.t()),
        images_(static_cast<std::size_t>(set.m()), 0) {}

  /// Moves the cursor to group z (z must be >= the current group).
  void LoadGroup(std::uint64_t z) {
    // Skip-pointer jump: when the target lies in a later decode block,
    // seek straight to that block's first header instead of consuming
    // every header (and, for γ/δ, every element) in between.
    const std::uint64_t target_block = z / CompressedScanSet::kSkipStride;
    const std::uint64_t target_group =
        target_block * CompressedScanSet::kSkipStride;
    if (target_group > next_group_) {
      reader_.SeekTo(set_.skips()[static_cast<std::size_t>(target_block)]);
      next_group_ = target_group;
      pending_ = false;
      decoded_ = false;
      len_ = 0;
      scan_idx_ = 0;
    }
    while (next_group_ <= z) {
      ConsumePendingElements();
      len_ = static_cast<std::uint32_t>(reader_.ReadUnary());
      if (len_ > 0) {
        for (int j = 0; j < m_; ++j) {
          images_[static_cast<std::size_t>(j)] = reader_.Read(64);
        }
        pending_ = true;
      } else {
        std::fill(images_.begin(), images_.end(), 0);
        pending_ = false;
      }
      current_group_ = next_group_;
      ++next_group_;
      decoded_ = false;
      scan_idx_ = 0;
    }
  }

  std::uint32_t len() const { return len_; }
  Word image(int j) const { return images_[static_cast<std::size_t>(j)]; }

  /// Decodes the current group's g-values (idempotent per group) through
  /// the selected kernel tier.
  const std::vector<std::uint32_t>& DecodeElements() {
    if (!decoded_) {
      elems_.resize(len_);
      const std::uint32_t base =
          static_cast<std::uint32_t>(current_group_ << low_bits_);
      if (set_.codec() == ScanCodec::kLowbits) {
        decode_->unpack_bits(set_.bits().data(), set_.bits().size(),
                             reader_.position(), low_bits_, base,
                             elems_.data(), len_);
        reader_.Skip(static_cast<std::size_t>(len_) *
                     static_cast<std::size_t>(low_bits_));
      } else {
        // Gap reads are inherently serial; the gap -> absolute conversion
        // vectorizes.  The first gap was written one high (the element may
        // equal the window base).
        for (std::uint32_t e = 0; e < len_; ++e) {
          std::uint64_t gap = set_.codec() == ScanCodec::kGamma
                                  ? ReadGamma(reader_)
                                  : ReadDelta(reader_);
          elems_[e] = static_cast<std::uint32_t>(gap);
        }
        if (len_ > 0) elems_[0] -= 1;
        decode_->prefix_sum(elems_.data(), len_, base);
      }
      pending_ = false;
      decoded_ = true;
      scan_idx_ = 0;
    }
    return elems_;
  }

  /// Rolling index into the decoded group (windows ascend within a group).
  std::size_t scan_idx() const { return scan_idx_; }
  void set_scan_idx(std::size_t i) { scan_idx_ = i; }

 private:
  void ConsumePendingElements() {
    if (!pending_) return;
    if (set_.codec() == ScanCodec::kLowbits) {
      // O(1) skip — the Lowbits advantage.
      reader_.Skip(static_cast<std::size_t>(len_) *
                   static_cast<std::size_t>(low_bits_));
    } else {
      // Variable-width codes must be decoded to be skipped.
      for (std::uint32_t e = 0; e < len_; ++e) {
        if (set_.codec() == ScanCodec::kGamma) {
          (void)ReadGamma(reader_);
        } else {
          (void)ReadDelta(reader_);
        }
      }
    }
    pending_ = false;
  }

  const CompressedScanSet& set_;
  BitReader reader_;
  const simd::DecodeKernels* decode_;
  int m_;
  int low_bits_;
  std::uint64_t current_group_ = 0;
  std::uint64_t next_group_ = 0;
  std::uint32_t len_ = 0;
  bool pending_ = false;
  bool decoded_ = false;
  std::vector<Word> images_;
  std::vector<std::uint32_t> elems_;
  std::size_t scan_idx_ = 0;
};

}  // namespace

void CompressedScanIntersection::Intersect(
    std::span<const PreprocessedSet* const> sets, ElemList* out) const {
  IntersectUnordered(sets, out);
  std::sort(out->begin(), out->end());
}

void CompressedScanIntersection::IntersectUnordered(
    std::span<const PreprocessedSet* const> sets, ElemList* out) const {
  std::size_t k = sets.size();
  if (k == 0) return;
  std::vector<const CompressedScanSet*> sorted;
  sorted.reserve(k);
  for (const PreprocessedSet* s : sets) {
    sorted.push_back(&As<CompressedScanSet>(*s));
    if (sorted.back()->m() != options_.m) {
      // The image filter ANDs the sets' images word by word.
      throw std::invalid_argument(
          "CompressedScan: set encoded with a different image count");
    }
  }
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const CompressedScanSet* a, const CompressedScanSet* b) {
                     return a->size() < b->size();
                   });
  std::vector<std::uint32_t> result_gvals;
  const int b = g_.domain_bits();
  const int m = options_.m;
  if (sorted[0]->size() == 0) return;
  if (k == 1) {
    result_gvals.resize(sorted[0]->size());
    DecodeGvals(*sorted[0], result_gvals.data());
  } else {
    std::vector<int> t(k);
    for (std::size_t i = 0; i < k; ++i) t[i] = sorted[i]->t();
    for (std::size_t i = k - 1; i > 0; --i) {
      if (t[i - 1] > t[i]) {
        throw std::logic_error("CompressedScan: inconsistent resolutions");
      }
    }
    const int tk = t[k - 1];
    const std::uint64_t zk_count = std::uint64_t{1} << tk;

    std::vector<GroupCursor> cursors;
    cursors.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      cursors.emplace_back(*sorted[i], b, decode_);
    }
    std::vector<Word> partial(k * static_cast<std::size_t>(m), 0);
    std::vector<std::uint64_t> prev_z(k, ~std::uint64_t{0});
    // Per-window verification state, reused across windows.
    std::vector<std::span<const std::uint32_t>> gv(k);
    std::vector<std::size_t> pos(k);
    std::vector<std::size_t> lim(k);

    std::uint64_t zk = 0;
    while (zk < zk_count) {
      std::size_t level = k;
      for (std::size_t i = 0; i < k; ++i) {
        if ((zk >> (tk - t[i])) != prev_z[i]) {
          level = i;
          break;
        }
      }
      bool dead = false;
      for (std::size_t i = level; i < k; ++i) {
        std::uint64_t zi = zk >> (tk - t[i]);
        prev_z[i] = zi;
        cursors[i].LoadGroup(zi);
        bool any_zero = false;
        for (int j = 0; j < m; ++j) {
          Word img = cursors[i].image(j);
          Word p = (i == 0) ? img : (partial[(i - 1) * m + j] & img);
          partial[i * static_cast<std::size_t>(m) + j] = p;
          any_zero |= (p == 0);
        }
        if (any_zero) {
          zk = (zi + 1) << (tk - t[i]);
          for (std::size_t jj = i; jj < k; ++jj) {
            prev_z[jj] = ~std::uint64_t{0};
          }
          dead = true;
          break;
        }
      }
      if (dead) continue;

      // Verification merge over the z_k window.
      const std::uint64_t win_lo = zk << (b - tk);
      const std::uint64_t win_hi = (zk + 1) << (b - tk);
      // Per-set: decode the group, position the rolling index at win_lo.
      bool empty_window = false;
      for (std::size_t i = 0; i < k; ++i) {
        const auto& decoded = cursors[i].DecodeElements();
        gv[i] = decoded;
        std::size_t c = cursors[i].scan_idx();
        while (c < decoded.size() && decoded[c] < win_lo) ++c;
        cursors[i].set_scan_idx(c);
        pos[i] = c;
        lim[i] = decoded.size();
        if (c >= decoded.size() || decoded[c] >= win_hi) {
          empty_window = true;
          break;
        }
      }
      if (!empty_window) {
        std::uint32_t cand = gv[0][pos[0]];
        std::size_t agree = 1;
        std::size_t i = 1;
        while (true) {
          std::size_t p = pos[i];
          while (p < lim[i] && gv[i][p] < cand) ++p;
          pos[i] = p;
          if (cursors[i].scan_idx() < p) cursors[i].set_scan_idx(p);
          if (p >= lim[i] || gv[i][p] >= win_hi) break;
          if (gv[i][p] == cand) {
            if (++agree == k) {
              result_gvals.push_back(cand);
              ++pos[i];
              if (cursors[i].scan_idx() < pos[i]) {
                cursors[i].set_scan_idx(pos[i]);
              }
              if (pos[i] >= lim[i] || gv[i][pos[i]] >= win_hi) break;
              cand = gv[i][pos[i]];
              agree = 1;
            }
          } else {
            cand = gv[i][p];
            agree = 1;
          }
          i = (i + 1) % k;
        }
      }
      ++zk;
    }
  }

  AppendInverse(g_, result_gvals, out, *decode_);
}

}  // namespace fsi
