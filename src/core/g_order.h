// The g-order of a set: the ascending g-values every structure over the
// permuted universe is built from (ScanSet, CompressedScanSet,
// GOrderedSet, MultiResolutionSet), and the way back from g-values to
// elements.  Both directions run the decode table's batch permute kernel
// (simd/decode_kernels.h) instead of one Apply/Invert call per value.
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
#include "simd/decode_kernels.h"

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

/// Appends g^-1(v) for every v in `gvals` to *out, in order: how a g-space
/// intersection turns its result g-values back into elements.  Runs the
/// permute kernel of `kernels`.
void AppendInverse(
    const FeistelPermutation& g, std::span<const std::uint32_t> gvals,
    ElemList* out,
    const simd::DecodeKernels& kernels = simd::DispatchedDecodeKernels());

}  // namespace fsi

#endif  // FSI_CORE_G_ORDER_H_
