// Equivalence and robustness tests for the decode kernel layer
// (simd/decode_kernels.h) and the bit-level codecs underneath it.
//
//  * Kernel level: every vector tier the machine can execute produces
//    bit-identical results to the scalar tier for unpack_bits, the
//    whole-stream Lowbits decode and filter, and prefix_sum, on
//    adversarial inputs — every width in [0, 32], every
//    in-word bit offset, counts straddling the 4/8-lane boundaries,
//    all-ones payloads, zero payloads, empty and single-element runs,
//    and exact-fit buffers whose last field ends on the very last bit
//    (the "never reads past words_len" contract, checked under ASan).
//    The whole-stream decode is also checked against sorted g(x) at
//    every resolution up to 14, and at its chain boundaries: a chain's
//    last group ending where the next chain's output starts, and chains
//    made only of empty groups, into exact-size output buffers.
//  * Codec level: fixed-seed fuzz of BitWriter/BitReader and the Elias
//    γ/δ codes — random write scripts round-trip exactly.  The iteration
//    count scales with FSI_STRESS_ITERS (nightly CI runs 10x).

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "codec/bit_stream.h"
#include "codec/elias.h"
#include "hash/feistel.h"
#include "simd/decode_kernels.h"

namespace fsi {
namespace {

using simd::DecodeKernels;
using simd::DecodeKernelsForLevel;
using simd::ScalarDecodeKernels;

std::size_t StressIters() {
  const char* env = std::getenv("FSI_STRESS_ITERS");
  if (env == nullptr) return 1;
  long v = std::strtol(env, nullptr, 10);
  return v > 0 ? static_cast<std::size_t>(v) : 1;
}

std::vector<simd::Level> AvailableLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  const simd::Level best = simd::DetectCpuLevel();
  if (best >= simd::Level::kAvx2) levels.push_back(simd::Level::kAvx2);
  return levels;
}

// Packs `count` fields of `width` bits MSB-first starting at bit_offset,
// via the production BitWriter — the ground-truth encoder.
std::vector<std::uint64_t> PackFields(const std::vector<std::uint32_t>& vals,
                                      std::size_t bit_offset, int width) {
  BitWriter writer;
  if (bit_offset > 0) {
    // Pad with an alternating pattern so an off-by-one read picks up
    // garbage rather than convenient zeros.
    for (std::size_t i = 0; i < bit_offset; ++i) writer.WriteBit(i % 3 == 0);
  }
  for (std::uint32_t v : vals) {
    writer.Write(width == 32 ? v : (v & ((std::uint64_t{1} << width) - 1)),
                 width);
  }
  return writer.TakeBuffer();
}

// ---------------------------------------------------------------------------
// unpack_bits: every tier vs the scalar reference.
// ---------------------------------------------------------------------------

TEST(DecodeKernelTest, AllTiersMatchScalarAcrossWidthsAndOffsets) {
  std::mt19937_64 rng(0xDEC0DE);
  const DecodeKernels& scalar = ScalarDecodeKernels();
  for (simd::Level level : AvailableLevels()) {
    const DecodeKernels& tier = DecodeKernelsForLevel(level);
    for (int width = 0; width <= 32; ++width) {
      const std::uint64_t mask =
          width == 32 ? ~std::uint64_t{0} >> 32
                      : (std::uint64_t{1} << width) - 1;
      // Offsets probing word starts, mid-word, and word-straddling fields.
      for (std::size_t offset : {std::size_t{0}, std::size_t{1},
                                 std::size_t{7}, std::size_t{31},
                                 std::size_t{63}, std::size_t{64},
                                 std::size_t{65}, std::size_t{127}}) {
        // Counts straddling the 8-field chunk and the 16-field vector
        // threshold.
        for (std::size_t count : {std::size_t{0}, std::size_t{1},
                                  std::size_t{3}, std::size_t{4},
                                  std::size_t{5}, std::size_t{8},
                                  std::size_t{9}, std::size_t{31},
                                  std::size_t{64}, std::size_t{100}}) {
          std::vector<std::uint32_t> vals(count);
          for (auto& v : vals) {
            v = static_cast<std::uint32_t>(rng()) & mask;
          }
          const std::vector<std::uint64_t> words =
              PackFields(vals, offset, width);
          const std::uint32_t base = static_cast<std::uint32_t>(rng());
          std::vector<std::uint32_t> want(count), got(count);
          scalar.unpack_bits(words.data(), words.size(), offset, width, base,
                             want.data(), count);
          tier.unpack_bits(words.data(), words.size(), offset, width, base,
                           got.data(), count);
          ASSERT_EQ(want, got) << "level=" << static_cast<int>(level)
                               << " width=" << width << " offset=" << offset
                               << " count=" << count;
          // The scalar reference itself must invert the pack exactly.
          for (std::size_t i = 0; i < count; ++i) {
            ASSERT_EQ(want[i],
                      static_cast<std::uint32_t>(vals[i] + base))
                << "width=" << width << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(DecodeKernelTest, MaxAndZeroValuedFields) {
  // All-ones payloads (every field at its width's max) and all-zeros, at
  // the uint32 extremes with a base that wraps.
  for (simd::Level level : AvailableLevels()) {
    const DecodeKernels& tier = DecodeKernelsForLevel(level);
    for (int width : {1, 7, 8, 16, 17, 31, 32}) {
      const std::uint32_t max_field = static_cast<std::uint32_t>(
          width == 32 ? ~std::uint32_t{0} : (std::uint32_t{1} << width) - 1);
      for (std::uint32_t fill : {std::uint32_t{0}, max_field}) {
        const std::size_t count = 17;
        std::vector<std::uint32_t> vals(count, fill);
        const std::vector<std::uint64_t> words = PackFields(vals, 5, width);
        std::vector<std::uint32_t> got(count);
        const std::uint32_t base = std::numeric_limits<std::uint32_t>::max();
        tier.unpack_bits(words.data(), words.size(), 5, width, base,
                         got.data(), count);
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(got[i], static_cast<std::uint32_t>(fill + base))
              << "level=" << static_cast<int>(level) << " width=" << width;
        }
      }
    }
  }
}

TEST(DecodeKernelTest, ExactFitBufferNeverReadsPast) {
  // The last field ends on the very last bit of the heap allocation; any
  // over-read past words + words_len trips ASan.  Every width, and counts
  // around the 16-field vector threshold, so the 8-field chunk loop's
  // six-word guard meets the allocation's end.
  std::mt19937_64 rng(0xF17);
  for (simd::Level level : AvailableLevels()) {
    const DecodeKernels& tier = DecodeKernelsForLevel(level);
    for (int width = 1; width <= 32; ++width) {
      for (std::size_t count :
           {std::size_t{1}, std::size_t{4}, std::size_t{9}, std::size_t{16},
            std::size_t{17}, std::size_t{23}, std::size_t{24},
            std::size_t{64}, std::size_t{100}}) {
        const std::size_t total_bits = count * static_cast<std::size_t>(width);
        const std::size_t offset = (64 - total_bits % 64) % 64;
        std::vector<std::uint32_t> vals(count);
        const std::uint64_t mask = width == 32
                                       ? ~std::uint64_t{0} >> 32
                                       : (std::uint64_t{1} << width) - 1;
        for (auto& v : vals) v = static_cast<std::uint32_t>(rng()) & mask;
        std::vector<std::uint64_t> packed = PackFields(vals, offset, width);
        ASSERT_EQ(offset + total_bits, packed.size() * 64);
        // Re-home into an exactly-sized fresh allocation: ASan red-zones
        // begin immediately after the last word.
        std::vector<std::uint64_t> words(packed);
        words.shrink_to_fit();
        std::vector<std::uint32_t> got(count);
        tier.unpack_bits(words.data(), words.size(), offset, width,
                         /*base=*/0, got.data(), count);
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(got[i], vals[i])
              << "level=" << static_cast<int>(level) << " width=" << width
              << " count=" << count;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// lowbits_decode / lowbits_filter: whole Lowbits streams, every tier.
// ---------------------------------------------------------------------------

/// A Lowbits stream written with the production BitWriter: per group a
/// unary length, m random image words when non-empty, then the sorted
/// distinct low-bit fields.  The words are an exact-fit heap buffer, so
/// ASan flags any read past the stream's last word.
struct TestStream {
  std::vector<std::uint64_t> words;
  std::vector<std::uint64_t> skips;
  std::vector<std::uint16_t> offsets;
  std::vector<std::uint32_t> gvals;
  int t = 0;
  int low_bits = 0;
  int m = 0;

  simd::LowbitsView View(bool indexed) const {
    simd::LowbitsView v;
    v.words = words.data();
    v.n_words = words.size();
    v.n = gvals.size();
    v.t = t;
    v.low_bits = low_bits;
    v.image_bits = 64 * static_cast<std::size_t>(m);
    v.skips = skips.data();
    v.group_offsets = indexed ? offsets.data() : nullptr;
    return v;
  }
};

/// Encodes ascending g-values (each below 2^(t + low_bits)) as a Lowbits
/// stream at resolution t.
TestStream EncodeStream(const std::vector<std::uint32_t>& gvals, int t,
                        int low_bits, int m, std::mt19937_64& rng) {
  TestStream s;
  s.t = t;
  s.low_bits = low_bits;
  s.m = m;
  s.gvals = gvals;
  const std::uint64_t low_mask = (std::uint64_t{1} << low_bits) - 1;
  BitWriter w;
  std::size_t i = 0;
  for (std::uint64_t z = 0; z < (std::uint64_t{1} << t); ++z) {
    if (z % simd::kLowbitsSkipStride == 0) s.skips.push_back(w.BitCount());
    const std::uint64_t offset = w.BitCount() - s.skips.back();
    // Some entries out of range, as past a huge group: the probe walks.
    s.offsets.push_back(offset >= simd::kNoGroupOffset || rng() % 5 == 0
                            ? simd::kNoGroupOffset
                            : static_cast<std::uint16_t>(offset));
    const std::size_t begin = i;
    while (i < gvals.size() && (std::uint64_t{gvals[i]} >> low_bits) == z) {
      ++i;
    }
    w.WriteUnary(i - begin);
    if (i == begin) continue;
    for (int j = 0; j < m; ++j) w.Write(rng(), 64);
    for (std::size_t e = begin; e < i; ++e) {
      w.Write(gvals[e] & low_mask, low_bits);
    }
  }
  // A fresh allocation of exactly the stream's words.
  const std::vector<std::uint64_t> buffer = w.TakeBuffer();
  s.words = std::vector<std::uint64_t>(buffer.begin(), buffer.end());
  return s;
}

/// `lengths`, when given, sets group z's length to lengths[z] (capped at
/// the field range); otherwise lengths are random in 0..12.
TestStream MakeStream(int t, int low_bits, int m, std::mt19937_64& rng,
                      const std::vector<std::uint64_t>* lengths = nullptr) {
  const std::uint64_t field_range = std::uint64_t{1} << low_bits;
  std::vector<std::uint32_t> gvals;
  for (std::uint64_t z = 0; z < (std::uint64_t{1} << t); ++z) {
    // Empty, short (<= 8: one unpack) and long groups.
    std::uint64_t len = lengths != nullptr ? (*lengths)[z]
                        : rng() % 4 == 0   ? 0
                                           : 1 + rng() % 12;
    len = std::min(len, field_range);
    std::vector<std::uint32_t> fields;
    while (fields.size() < len) {
      fields.push_back(static_cast<std::uint32_t>(rng() % field_range));
      std::sort(fields.begin(), fields.end());
      fields.erase(std::unique(fields.begin(), fields.end()), fields.end());
    }
    for (std::uint32_t f : fields) {
      gvals.push_back(static_cast<std::uint32_t>(z << low_bits) | f);
    }
  }
  return EncodeStream(gvals, t, low_bits, m, rng);
}

/// The first group of each of lowbits_decode's four chains, as the kernel
/// splits a stream without image words and with at least 16 decode
/// blocks: chain c starts at block c * B / 4 of the B blocks.
std::vector<std::uint64_t> ChainStartGroups(int t) {
  const std::uint64_t blocks =
      ((std::uint64_t{1} << t) + simd::kLowbitsSkipStride - 1) /
      simd::kLowbitsSkipStride;
  std::vector<std::uint64_t> starts;
  for (std::uint64_t c = 0; c < 4; ++c) {
    starts.push_back(blocks * c / 4 * simd::kLowbitsSkipStride);
  }
  return starts;
}

/// Decodes `s` on every tier into an exact-size buffer (ASan flags a write
/// past its end) and checks the result against the scalar tier and
/// against the stream's g-values.
void ExpectDecodes(const TestStream& s, const std::string& what) {
  std::vector<std::uint32_t> ref(s.gvals.size());
  ScalarDecodeKernels().lowbits_decode(s.View(true), ref.data());
  ASSERT_EQ(ref, s.gvals) << what << " level=scalar";
  for (simd::Level level : AvailableLevels()) {
    std::vector<std::uint32_t> got(s.gvals.size());
    DecodeKernelsForLevel(level).lowbits_decode(s.View(true), got.data());
    ASSERT_EQ(got, ref) << what << " level=" << static_cast<int>(level);
  }
}

TEST(DecodeKernelTest, LowbitsDecodeMatchesSortedG) {
  // Sorted g(x) of random sets at every resolution t = 0..14 with the
  // full-domain field width 32 - t, with and without image words: up to
  // t = 6 (under 16 decode blocks) and with images the decode runs one
  // chain, otherwise four.  About 6 members per group, and a sparse set
  // with many empty groups.
  std::mt19937_64 rng(0xC4A125);
  const FeistelPermutation g(32, 0x5EED);
  for (int t = 0; t <= 14; ++t) {
    for (std::uint64_t per_group : {6, 1}) {
      const std::size_t n = static_cast<std::size_t>(per_group << t);
      std::vector<std::uint32_t> gvals;
      for (std::size_t i = 0; i < n; ++i) {
        gvals.push_back(static_cast<std::uint32_t>(
            g.Apply(static_cast<std::uint32_t>(rng()))));
      }
      std::sort(gvals.begin(), gvals.end());
      gvals.erase(std::unique(gvals.begin(), gvals.end()), gvals.end());
      for (int m : {0, 1}) {
        ExpectDecodes(EncodeStream(gvals, t, 32 - t, m, rng),
                      "t=" + std::to_string(t) + " m=" + std::to_string(m) +
                          " n=" + std::to_string(gvals.size()));
      }
    }
  }
}

TEST(DecodeKernelTest, LowbitsDecodeChainBoundaries) {
  // Four-chain streams (t = 7 and 10, m = 0) at narrow and wide field
  // widths.
  //  * Each chain's last group holds 1..9 members and the next chain's
  //    first group is non-empty, so the last group ends exactly where the
  //    next chain's output starts: an 8-field chunk written there would
  //    overwrite values the next chain wrote in an earlier round.
  //  * One chain's whole range is empty groups (the first, a middle or
  //    the last chain), so its output range is empty and two chains
  //    start at the same output slot.
  std::mt19937_64 rng(0xB0DA);
  for (int t : {7, 10}) {
    const std::uint64_t num_groups = std::uint64_t{1} << t;
    const std::vector<std::uint64_t> starts = ChainStartGroups(t);
    for (int low_bits : {1, 5, 13, 32 - t}) {
      for (std::uint64_t last_len = 1; last_len <= 9; ++last_len) {
        std::vector<std::uint64_t> lengths(num_groups);
        for (auto& len : lengths) len = rng() % 13;
        for (std::size_t c = 1; c < starts.size(); ++c) {
          lengths[starts[c] - 1] = last_len;
          lengths[starts[c]] = std::max<std::uint64_t>(lengths[starts[c]], 1);
        }
        lengths.back() = last_len;
        ExpectDecodes(MakeStream(t, low_bits, 0, rng, &lengths),
                      "t=" + std::to_string(t) +
                          " low_bits=" + std::to_string(low_bits) +
                          " last_len=" + std::to_string(last_len));
      }
      for (std::size_t empty = 0; empty < starts.size(); ++empty) {
        std::vector<std::uint64_t> lengths(num_groups);
        for (auto& len : lengths) len = 1 + rng() % 7;
        const std::uint64_t end =
            empty + 1 < starts.size() ? starts[empty + 1] : num_groups;
        for (std::uint64_t z = starts[empty]; z < end; ++z) lengths[z] = 0;
        ExpectDecodes(MakeStream(t, low_bits, 0, rng, &lengths),
                      "t=" + std::to_string(t) +
                          " low_bits=" + std::to_string(low_bits) +
                          " empty_chain=" + std::to_string(empty));
      }
    }
  }
}

TEST(DecodeKernelTest, LowbitsKernelsMatchScalarAtTheStreamEnd) {
  // Every width, with and without image words and the group index;
  // candidates are members, random g-values (all of them for widths up to
  // 8) and both ends of every group, so the probes reach the last groups,
  // whose fields end on the buffer's last word (the clamped extraction
  // path).
  std::mt19937_64 rng(0x8F1E1D);
  for (simd::Level level : AvailableLevels()) {
    const DecodeKernels& tier = DecodeKernelsForLevel(level);
    for (int low_bits = 0; low_bits <= 32; ++low_bits) {
      for (int m : {0, 1}) {
        const int t = std::min(4, 32 - low_bits);
        const TestStream s = MakeStream(t, low_bits, m, rng);
        std::vector<std::uint32_t> decoded(s.gvals.size());
        tier.lowbits_decode(s.View(true), decoded.data());
        ASSERT_EQ(decoded, s.gvals) << "level=" << static_cast<int>(level)
                                    << " low_bits=" << low_bits << " m=" << m;

        std::vector<std::uint32_t> cand;
        for (std::uint32_t g : s.gvals) {
          if (rng() % 2 == 0) cand.push_back(g);
        }
        const std::uint64_t universe = std::uint64_t{1} << (t + low_bits);
        for (int i = 0; i < 40; ++i) {
          cand.push_back(static_cast<std::uint32_t>(rng() % universe));
        }
        // Small universes: every g-value, so a probe that reads a field
        // past its group's end (the next header, images or fields) finds
        // a candidate to match it.
        for (std::uint64_t g = 0; universe <= 4096 && g < universe; ++g) {
          cand.push_back(static_cast<std::uint32_t>(g));
        }
        for (std::uint64_t z = 0; z < (std::uint64_t{1} << t); ++z) {
          cand.push_back(static_cast<std::uint32_t>(z << low_bits));
          cand.push_back(
              static_cast<std::uint32_t>(((z + 1) << low_bits) - 1));
        }
        std::sort(cand.begin(), cand.end());
        cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
        // Also only the candidates of every third group, so that seeks
        // without the index walk over groups nobody probes.
        std::vector<std::uint32_t> sparse;
        for (std::uint32_t g : cand) {
          if ((std::uint64_t{g} >> low_bits) % 3 == 2) sparse.push_back(g);
        }
        for (const auto* probe : {&cand, &sparse}) {
          std::vector<std::uint32_t> want;
          std::set_intersection(probe->begin(), probe->end(),
                                s.gvals.begin(), s.gvals.end(),
                                std::back_inserter(want));
          for (bool indexed : {false, true}) {
            std::vector<std::uint32_t> got = *probe;  // filtered in place
            got.resize(tier.lowbits_filter(s.View(indexed), got.data(),
                                           got.size(), got.data()));
            ASSERT_EQ(got, want)
                << "level=" << static_cast<int>(level)
                << " low_bits=" << low_bits << " m=" << m
                << " indexed=" << indexed << " sparse=" << (probe == &sparse);
          }
        }
      }
    }
  }
}

TEST(DecodeKernelTest, LowbitsGroupsOfEveryLengthWidthAndStartOffset) {
  // Every field width 1..32, so both sides of the vector tier's switch
  // from the byte-shuffle unpack (widths <= 24) to 64-bit lanes run; every
  // group length 0..20, so groups of 1..8 take one unpack, 9..16 the
  // two-vector probe and 17+ the field-by-field walk; and, where streams
  // have room for enough groups (widths <= 26), groups of each of those
  // three classes starting at every in-word bit offset.  Streams are added
  // until that coverage is complete, each group's length picked for a
  // (length, class, offset) not seen yet.  Candidates include the w bits
  // behind each group's last field, as the lanes past its length would
  // read them, so a probe that tests a lane too many finds a false match.
  std::mt19937_64 rng(0x61E7);
  const DecodeKernels& scalar = ScalarDecodeKernels();
  auto length_class = [](std::uint64_t len) {
    return len <= 8 ? 0 : len <= 16 ? 1 : 2;
  };
  for (int low_bits = 1; low_bits <= 32; ++low_bits) {
    const int t = std::min(10, 32 - low_bits);
    const std::uint64_t num_groups = std::uint64_t{1} << t;
    const std::uint64_t field_range = std::uint64_t{1} << low_bits;
    const std::uint64_t max_len = std::min<std::uint64_t>(20, field_range);
    const std::size_t width = static_cast<std::size_t>(low_bits);
    std::vector<bool> lengths_seen(max_len + 1, false);
    std::vector<std::vector<bool>> offsets_seen(3,
                                                std::vector<bool>(64, false));
    auto covered = [&] {
      if (std::find(lengths_seen.begin(), lengths_seen.end(), false) !=
          lengths_seen.end()) {
        return false;
      }
      if (low_bits > 26) return true;
      for (std::uint64_t cls = 0; cls < 3; ++cls) {
        if (8 * cls >= max_len) continue;  // no such lengths fit
        for (bool seen : offsets_seen[cls]) {
          if (!seen) return false;
        }
      }
      return true;
    };
    for (int stream = 0; stream < 64 && !covered(); ++stream) {
      const int m = stream % 2;
      // Pick each group's length for coverage, tracking where its fields
      // will start (images are whole words: they move no offset).
      std::vector<std::uint64_t> lengths(num_groups, 0);
      std::size_t pos = 0;
      for (std::uint64_t z = 0; z < num_groups; ++z) {
        std::uint64_t pick = 0;
        const std::uint64_t first = rng() % (max_len + 1);
        for (std::uint64_t k = 0; k <= max_len; ++k) {
          const std::uint64_t len = (first + k) % (max_len + 1);
          const std::size_t start = (pos + len + 1) & 63;
          if (!lengths_seen[len] ||
              (len != 0 && !offsets_seen[length_class(len)][start])) {
            pick = len;
            break;
          }
        }
        lengths[z] = pick;
        lengths_seen[pick] = true;
        if (pick != 0) {
          offsets_seen[length_class(pick)][(pos + pick + 1) & 63] = true;
          pos += pick + 1 + 64 * static_cast<std::size_t>(m) + pick * width;
        } else {
          pos += 1;
        }
      }
      const TestStream s = MakeStream(t, low_bits, m, rng, &lengths);

      std::vector<std::uint32_t> cand;
      BitReader reader(s.words.data(), s.words.size() * 64);
      for (std::uint64_t z = 0; z < num_groups; ++z) {
        const std::size_t len = static_cast<std::size_t>(reader.ReadUnary());
        ASSERT_EQ(len, lengths[z]);
        if (len == 0) continue;
        reader.Skip(64 * static_cast<std::size_t>(m));
        const std::size_t field_pos = reader.position();
        reader.Skip(len * width);
        // What lanes len..15 read: the bits behind the group's end.
        const std::uint32_t base = static_cast<std::uint32_t>(z << low_bits);
        for (std::size_t i = len; i < 16; ++i) {
          const std::size_t p = field_pos + i * width;
          if (p + width > s.words.size() * 64) break;
          BitReader behind(s.words.data(), s.words.size() * 64);
          behind.SeekTo(p);
          cand.push_back(base |
                         static_cast<std::uint32_t>(behind.Read(low_bits)));
        }
        cand.push_back(base);
        cand.push_back(static_cast<std::uint32_t>(base + (field_range - 1)));
      }
      for (std::uint32_t g : s.gvals) {
        if (rng() % 2 == 0) cand.push_back(g);
      }
      for (int i = 0; i < 100; ++i) {
        cand.push_back(
            static_cast<std::uint32_t>(rng() % (num_groups << low_bits)));
      }
      std::sort(cand.begin(), cand.end());
      cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
      std::vector<std::uint32_t> want;
      std::set_intersection(cand.begin(), cand.end(), s.gvals.begin(),
                            s.gvals.end(), std::back_inserter(want));

      for (simd::Level level : AvailableLevels()) {
        const DecodeKernels& tier = DecodeKernelsForLevel(level);
        std::vector<std::uint32_t> decoded(s.gvals.size());
        tier.lowbits_decode(s.View(true), decoded.data());
        ASSERT_EQ(decoded, s.gvals) << "level=" << static_cast<int>(level)
                                    << " low_bits=" << low_bits
                                    << " stream=" << stream;
        for (bool indexed : {false, true}) {
          std::vector<std::uint32_t> got(cand.size()), ref(cand.size());
          got.resize(tier.lowbits_filter(s.View(indexed), cand.data(),
                                         cand.size(), got.data()));
          ref.resize(scalar.lowbits_filter(s.View(indexed), cand.data(),
                                           cand.size(), ref.data()));
          ASSERT_EQ(got, ref) << "level=" << static_cast<int>(level)
                              << " low_bits=" << low_bits
                              << " stream=" << stream
                              << " indexed=" << indexed;
          ASSERT_EQ(got, want) << "level=" << static_cast<int>(level)
                               << " low_bits=" << low_bits
                               << " stream=" << stream
                               << " indexed=" << indexed;
        }
      }
    }
    EXPECT_TRUE(covered()) << "low_bits=" << low_bits;
  }
}

TEST(DecodeKernelTest, EmptyRunIsANoOp) {
  const std::uint64_t word = 0xA5A5A5A5A5A5A5A5ULL;
  for (simd::Level level : AvailableLevels()) {
    const DecodeKernels& tier = DecodeKernelsForLevel(level);
    std::uint32_t sentinel = 0xCAFE;
    tier.unpack_bits(&word, 1, 0, 13, 7, &sentinel, 0);
    EXPECT_EQ(sentinel, 0xCAFEu);  // untouched
    tier.prefix_sum(&sentinel, 0, 99);
    EXPECT_EQ(sentinel, 0xCAFEu);
  }
}

// ---------------------------------------------------------------------------
// prefix_sum: every tier vs scalar, including uint32 wraparound.
// ---------------------------------------------------------------------------

TEST(DecodeKernelTest, PrefixSumMatchesScalarWithWraparound) {
  std::mt19937_64 rng(0x5E9);
  const DecodeKernels& scalar = ScalarDecodeKernels();
  for (simd::Level level : AvailableLevels()) {
    const DecodeKernels& tier = DecodeKernelsForLevel(level);
    for (std::size_t count : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{4}, std::size_t{5}, std::size_t{7},
                              std::size_t{8}, std::size_t{9}, std::size_t{16},
                              std::size_t{33}, std::size_t{1000}}) {
      std::vector<std::uint32_t> vals(count);
      // Large gaps force wraparound partway through the run.
      for (auto& v : vals) v = static_cast<std::uint32_t>(rng());
      std::vector<std::uint32_t> want = vals, got = vals;
      const std::uint32_t base = static_cast<std::uint32_t>(rng());
      scalar.prefix_sum(want.data(), count, base);
      tier.prefix_sum(got.data(), count, base);
      ASSERT_EQ(want, got) << "level=" << static_cast<int>(level)
                           << " count=" << count;
      // Reference semantics: inclusive scan with carry-in.
      std::uint32_t acc = base;
      for (std::size_t i = 0; i < count; ++i) {
        acc += vals[i];
        ASSERT_EQ(want[i], acc) << "i=" << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Codec fuzz: BitWriter/BitReader and Elias γ/δ round-trips, fixed seed,
// scaled by FSI_STRESS_ITERS.
// ---------------------------------------------------------------------------

TEST(CodecFuzzTest, BitStreamRandomScriptsRoundTrip) {
  const std::size_t iters = 50 * StressIters();
  std::mt19937_64 rng(0xB175);
  for (std::size_t iter = 0; iter < iters; ++iter) {
    // A script is a sequence of (kind, value) ops; replay it through a
    // reader and require exact recovery.
    struct Op {
      int kind;  // 0 = fixed-width, 1 = unary
      std::uint64_t value;
      int bits;
    };
    std::vector<Op> script;
    BitWriter writer;
    const std::size_t ops = 1 + rng() % 200;
    for (std::size_t i = 0; i < ops; ++i) {
      Op op;
      op.kind = rng() % 2;
      if (op.kind == 0) {
        op.bits = static_cast<int>(rng() % 65);
        op.value = op.bits == 64
                       ? rng()
                       : rng() & ((std::uint64_t{1} << op.bits) - 1);
        writer.Write(op.value, op.bits);
      } else {
        op.value = rng() % 300;  // exercises the >= 64-zeros path
        op.bits = 0;
        writer.WriteUnary(op.value);
      }
      script.push_back(op);
    }
    const std::size_t bit_count = writer.BitCount();
    const std::vector<std::uint64_t> words = writer.TakeBuffer();
    BitReader reader(words.data(), bit_count);
    for (const Op& op : script) {
      if (op.kind == 0) {
        ASSERT_EQ(reader.Read(op.bits), op.value) << "iter " << iter;
      } else {
        ASSERT_EQ(reader.ReadUnary(), op.value) << "iter " << iter;
      }
    }
    ASSERT_EQ(reader.position(), bit_count);
  }
}

TEST(CodecFuzzTest, EliasGammaDeltaRoundTrip) {
  const std::size_t iters = 50 * StressIters();
  std::mt19937_64 rng(0xE11A5);
  for (std::size_t iter = 0; iter < iters; ++iter) {
    std::vector<std::uint64_t> values;
    const std::size_t n = 1 + rng() % 500;
    for (std::size_t i = 0; i < n; ++i) {
      // Bias toward small values (the gap regime) but include the full
      // 64-bit range; γ/δ encode strictly positive integers.
      const int magnitude = static_cast<int>(rng() % 64);
      std::uint64_t v = (rng() & ((std::uint64_t{1} << magnitude) - 1)) | 1;
      values.push_back(v);
    }
    BitWriter gw, dw;
    std::size_t gamma_bits = 0, delta_bits = 0;
    for (std::uint64_t v : values) {
      WriteGamma(gw, v);
      WriteDelta(dw, v);
      gamma_bits += static_cast<std::size_t>(GammaBits(v));
      delta_bits += static_cast<std::size_t>(DeltaBits(v));
    }
    // The size formulas must agree with the actual stream length.
    ASSERT_EQ(gw.BitCount(), gamma_bits) << "iter " << iter;
    ASSERT_EQ(dw.BitCount(), delta_bits) << "iter " << iter;
    const auto gwords = gw.buffer();
    const auto dwords = dw.buffer();
    BitReader gr(gwords.data(), gamma_bits);
    BitReader dr(dwords.data(), delta_bits);
    for (std::uint64_t v : values) {
      ASSERT_EQ(ReadGamma(gr), v) << "iter " << iter;
      ASSERT_EQ(ReadDelta(dr), v) << "iter " << iter;
    }
    ASSERT_EQ(gr.position(), gamma_bits);
    ASSERT_EQ(dr.position(), delta_bits);
  }
}

}  // namespace
}  // namespace fsi
