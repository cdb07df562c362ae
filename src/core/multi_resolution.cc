#include "core/multi_resolution.h"

#include <algorithm>
#include <stdexcept>

#include "core/g_order.h"

namespace fsi {

MultiResolutionSet::MultiResolutionSet(std::span<const Elem> set,
                                       const FeistelPermutation& g,
                                       const WordHash& h,
                                       bool single_resolution)
    : domain_bits_(g.domain_bits()) {
  if (domain_bits_ > 32) {
    throw std::invalid_argument(
        "MultiResolutionSet: permutation domain wider than 32 bits");
  }
  // g is a bijection, so the g-order both orders the elements for the
  // interval property and makes every gval unique.
  gvals_ = GOrder(set, g, "MultiResolutionSet");
  const std::size_t n = gvals_.size();

  hvals_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    hvals_[i] = static_cast<std::uint8_t>(h(gvals_[i]));
  }

  // next(x): scan right-to-left, remembering the most recent position of
  // each h-value.
  next_.assign(n, kNoPos);
  std::uint32_t last_seen[kWordBits];
  std::fill(std::begin(last_seen), std::end(last_seen), kNoPos);
  for (std::size_t ii = n; ii > 0; --ii) {
    auto i = static_cast<std::uint32_t>(ii - 1);
    next_[i] = last_seen[hvals_[i]];
    last_seen[hvals_[i]] = i;
  }

  // Resolutions t = 0 .. min(ceil(log2 n), domain_bits): the finest useful
  // partition has ~1 element per group.
  int max_t = std::min(CeilLog2(std::max<std::uint64_t>(n, 1)), domain_bits_);
  resolutions_.resize(static_cast<std::size_t>(max_t) + 1);
  int only_t = single_resolution ? DefaultResolution() : -1;
  for (int t = 0; t <= max_t; ++t) {
    if (only_t >= 0 && t != only_t) continue;
    Resolution& res = resolutions_[static_cast<std::size_t>(t)];
    std::size_t groups = std::size_t{1} << t;
    int shift = domain_bits_ - t;

    // Boundaries by counting sort over the t-bit prefixes.
    res.group_start.assign(groups + 1, 0);
    for (std::uint32_t gv : gvals_) {
      ++res.group_start[(static_cast<std::uint64_t>(gv) >> shift) + 1];
    }
    for (std::size_t z = 1; z <= groups; ++z) {
      res.group_start[z] += res.group_start[z - 1];
    }

    // Word images and packed first-offsets.
    std::uint32_t max_group = 0;
    for (std::size_t z = 0; z < groups; ++z) {
      max_group = std::max(max_group,
                           res.group_start[z + 1] - res.group_start[z]);
    }
    int field_bits = std::max(1, CeilLog2(max_group + 2));
    res.images.assign(groups, 0);
    res.first = PackedArray(groups * kWordBits, field_bits);
    const std::uint64_t absent = res.first.max_value();
    for (std::size_t f = 0; f < res.first.size(); ++f) res.first.Set(f, absent);
    for (std::size_t z = 0; z < groups; ++z) {
      for (std::uint32_t i = res.group_start[z]; i < res.group_start[z + 1];
           ++i) {
        int y = hvals_[i];
        res.images[z] |= WordBit(y);
        std::size_t field = z * kWordBits + static_cast<std::size_t>(y);
        if (res.first.Get(field) == absent) {
          res.first.Set(field, i - res.group_start[z]);
        }
      }
    }
  }
}

int MultiResolutionSet::DefaultResolution() const {
  std::uint64_t n = gvals_.size();
  if (n <= kSqrtWordBits) return 0;
  return ClampResolution(CeilLog2((n + kSqrtWordBits - 1) / kSqrtWordBits));
}

std::size_t MultiResolutionSet::SizeInWords() const {
  std::size_t words = (gvals_.size() * sizeof(std::uint32_t) + 7) / 8;
  words += (hvals_.size() + 7) / 8;
  words += (next_.size() * sizeof(std::uint32_t) + 7) / 8;
  for (const Resolution& res : resolutions_) {
    words += (res.group_start.size() * sizeof(std::uint32_t) + 7) / 8;
    words += res.images.size();
    words += res.first.SizeInWords();
  }
  return words;
}

}  // namespace fsi
