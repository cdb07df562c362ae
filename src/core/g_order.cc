#include "core/g_order.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/bits.h"

namespace fsi {

namespace {

constexpr std::size_t kBucketTarget = 8;    // members per bucket, at most
constexpr std::size_t kInsertionMax = 32;   // larger buckets use std::sort

}  // namespace

std::vector<std::uint32_t> GOrder(std::span<const Elem> set,
                                  const FeistelPermutation& g,
                                  std::string_view structure) {
  DebugCheckSortedUnique(set, structure);
  if (!set.empty() && g.domain_bits() < 32 &&
      set.back() >= (Elem{1} << g.domain_bits())) {
    throw std::invalid_argument(std::string(structure) +
                                ": element outside the permutation domain");
  }
  const std::size_t n = set.size();
  const int value_bits = std::min(g.domain_bits(), 32);
  const int bucket_bits = std::min(
      CeilLog2((n + kBucketTarget - 1) / kBucketTarget), value_bits);
  const int shift = value_bits - bucket_bits;

  // Apply g to the whole set, then count bucket sizes; the prefix sums
  // turn the counts into each bucket's write cursor.
  std::vector<std::uint32_t> applied(set.begin(), set.end());
  simd::DispatchedDecodeKernels().permute(g, /*inverse=*/false,
                                          applied.data(), n);
  std::vector<std::uint32_t> cursor((std::size_t{1} << bucket_bits) + 1, 0);
  for (std::uint32_t gv : applied) {
    ++cursor[(static_cast<std::uint64_t>(gv) >> shift) + 1];
  }
  for (std::size_t z = 1; z < cursor.size(); ++z) cursor[z] += cursor[z - 1];
  std::vector<std::uint32_t> out(n);
  for (std::uint32_t gv : applied) {
    out[cursor[static_cast<std::uint64_t>(gv) >> shift]++] = gv;
  }

  // After the scatter cursor[z] is where bucket z + 1 starts.
  std::size_t begin = 0;
  for (std::size_t z = 0; z + 1 < cursor.size(); ++z) {
    const std::size_t end = cursor[z];
    if (end - begin > kInsertionMax) {
      std::sort(out.begin() + static_cast<std::ptrdiff_t>(begin),
                out.begin() + static_cast<std::ptrdiff_t>(end));
    } else {
      for (std::size_t i = begin + 1; i < end; ++i) {
        const std::uint32_t v = out[i];
        std::size_t j = i;
        for (; j > begin && out[j - 1] > v; --j) out[j] = out[j - 1];
        out[j] = v;
      }
    }
    begin = end;
  }
  return out;
}

void AppendInverse(const FeistelPermutation& g,
                   std::span<const std::uint32_t> gvals, ElemList* out,
                   const simd::DecodeKernels& kernels) {
  const std::size_t old_size = out->size();
  out->insert(out->end(), gvals.begin(), gvals.end());
  kernels.permute(g, /*inverse=*/true, out->data() + old_size, gvals.size());
}

}  // namespace fsi
