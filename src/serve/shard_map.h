// The shard map: which shard owns which slice of the element universe.
//
// The serving layer (serve/sharded_engine.h) partitions the element
// universe into S shards so one query can fan out over S per-shard
// engines.  Because intersection distributes over a partition of the
// universe — (A ∩ B) = ⋃ₛ (Aₛ ∩ Bₛ) when every Aₛ/Bₛ holds only the
// elements of shard s — the partition can be *any* function of the
// element value.  This one is chosen so the scatter-gather layer gets
// two properties for free:
//
//  * O(1) mask+shift lookup: shard(e) = min(e >> shift, S - 1).  The
//    shift is fixed at construction from the universe bound, so routing
//    an element (or splitting a whole posting list) is branch-free
//    arithmetic, never a search (compare OSRM's packed
//    multi_level_partition, which motivates the same trick).
//  * Contiguous ranges in document-id order: shard s owns
//    [s << shift, (s+1) << shift).  Per-shard results are therefore
//    *already globally sorted* relative to each other — the gather step
//    is pure concatenation in shard order, and the sharded result is
//    bitwise-identical to a single engine's ordered result.
//
// Elements at or beyond the declared universe bound clamp into the last
// shard (the min above), which keeps the map total and monotone: a
// too-small bound degrades balance, never correctness.
//
// See docs/SERVING.md for how shard count interacts with thread count
// and deadline budgets.

#ifndef FSI_SERVE_SHARD_MAP_H_
#define FSI_SERVE_SHARD_MAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/algorithm.h"

namespace fsi {

/// Partitions the element universe [0, universe_bound) into `num_shards`
/// contiguous, equal-width ranges with mask+shift routing.  Immutable
/// after construction; trivially copyable and thread-safe.
class ShardMap {
 public:
  /// `num_shards` must be a power of two in [1, 2^20] (the routing math
  /// is a shift, and the serving layer scatters one task per shard —
  /// more shards than that is a configuration error, not a deployment).
  /// `universe_bound` is exclusive; 0 means the full 32-bit id space.
  explicit ShardMap(std::size_t num_shards, Elem universe_bound = 0)
      : num_shards_(num_shards) {
    if (!ValidNumShards(num_shards)) {
      throw std::invalid_argument(
          "ShardMap: num_shards must be a power of two in [1, 2^20]");
    }
    const int shard_bits = std::countr_zero(num_shards);
    // Bits needed to address the universe: bound 0 -> the full 32.
    const int universe_bits =
        universe_bound == 0
            ? 32
            : std::bit_width(static_cast<std::uint32_t>(universe_bound - 1));
    shift_ = universe_bits > shard_bits
                 ? static_cast<unsigned>(universe_bits - shard_bits)
                 : 0u;
  }

  /// The constructor's rule for `num_shards`: a power of two in [1, 2^20].
  static bool ValidNumShards(std::size_t num_shards) {
    return std::has_single_bit(num_shards) && num_shards <= (1u << 20);
  }

  std::size_t num_shards() const { return num_shards_; }
  unsigned shift() const { return shift_; }

  /// The shard owning element `e` — one shift, one clamp.
  std::size_t shard_of(Elem e) const {
    const std::size_t s = static_cast<std::size_t>(e >> shift_);
    return s < num_shards_ ? s : num_shards_ - 1;
  }

  /// First element routed to shard `s`.
  Elem shard_begin(std::size_t s) const {
    return static_cast<Elem>(static_cast<std::uint64_t>(s) << shift_);
  }

  /// Splits one sorted list into per-shard slices (index-aligned with
  /// shard ids; shards with no elements get empty lists).  Input order
  /// is preserved, so each slice is itself sorted and duplicate-free.
  std::vector<ElemList> Split(std::span<const Elem> sorted) const {
    std::vector<ElemList> slices(num_shards_);
    std::size_t begin = 0;
    for (std::size_t s = 0; s + 1 < num_shards_ && begin < sorted.size();
         ++s) {
      // The slice boundary: first element belonging to a later shard.
      std::size_t end = begin;
      while (end < sorted.size() && shard_of(sorted[end]) == s) ++end;
      if (end > begin) {
        slices[s].assign(sorted.begin() + static_cast<std::ptrdiff_t>(begin),
                         sorted.begin() + static_cast<std::ptrdiff_t>(end));
      }
      begin = end;
    }
    if (begin < sorted.size()) {
      // Everything left belongs to the last non-empty shard encountered
      // above or beyond — which, for sorted input, is exactly the shard
      // of the first remaining element.
      const std::size_t s = shard_of(sorted[begin]);
      slices[s].assign(sorted.begin() + static_cast<std::ptrdiff_t>(begin),
                       sorted.end());
    }
    return slices;
  }

 private:
  std::size_t num_shards_;
  unsigned shift_;
};

}  // namespace fsi

#endif  // FSI_SERVE_SHARD_MAP_H_
