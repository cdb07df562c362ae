// The g-order of a set: the ascending g-values every structure over the
// permuted universe is built from (ScanSet, CompressedScanSet,
// GOrderedSet, MultiResolutionSet).
//
// Applying g scatters the set uniformly over [0, 2^b), so the structures'
// own group partition — the top bits of g(x) — already orders the values
// up to a few members per group.  One counting pass over those bits, a
// scatter and a short insertion sort per bucket replace a comparison sort
// of the whole array; g is a bijection, so the result is exactly the
// sorted array of g-values.

#ifndef FSI_CORE_G_ORDER_H_
#define FSI_CORE_G_ORDER_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/algorithm.h"
#include "hash/feistel.h"

namespace fsi {

/// g(x) for every x in `set`, ascending (values truncated to 32 bits).
/// Checks `set` on the way: sorted and duplicate-free in Debug builds
/// (DebugCheckSortedUnique), and always inside g's domain — otherwise
/// std::invalid_argument("<structure>: element outside the permutation
/// domain").
///
/// Buckets by the top ceil(log2(n / 8)) value bits, so a bucket averages
/// 4–8 members and is insertion-sorted; a bucket above 32 members (which
/// a uniform g makes rare) falls back to std::sort.
std::vector<std::uint32_t> GOrder(std::span<const Elem> set,
                                  const FeistelPermutation& g,
                                  std::string_view structure);

}  // namespace fsi

#endif  // FSI_CORE_G_ORDER_H_
