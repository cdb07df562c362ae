// Tests for the compressed structures (Section 4.1, Appendix B): size
// accounting and correctness of every codec, and the documented space
// relationships between them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <vector>

#include "baseline/compressed_baselines.h"
#include "baseline/lookup.h"
#include "baseline/merge.h"
#include "core/compressed_scan.h"
#include "core/ran_group_scan.h"
#include "simd/decode_kernels.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace fsi {
namespace {

ElemList GroundTruth(const std::vector<ElemList>& lists) {
  ElemList acc = lists[0];
  for (std::size_t i = 1; i < lists.size(); ++i) {
    ElemList next;
    std::set_intersection(acc.begin(), acc.end(), lists[i].begin(),
                          lists[i].end(), std::back_inserter(next));
    acc.swap(next);
  }
  return acc;
}

TEST(CompressedPlainSetTest, DecodeRoundTrip) {
  Xoshiro256 rng(31);
  for (auto codec : {EliasCodec::kGamma, EliasCodec::kDelta}) {
    for (std::size_t n : {0u, 1u, 2u, 100u, 10000u}) {
      ElemList set = SampleSortedSet(n, 1 << 24, rng);
      CompressedPlainSet c(set, codec);
      EXPECT_EQ(c.Decode(), set);
      EXPECT_EQ(c.size(), n);
    }
  }
}

TEST(CompressedPlainSetTest, FirstElementZeroHandled) {
  ElemList set = {0, 1, 5, 1000};
  CompressedPlainSet c(set, EliasCodec::kDelta);
  EXPECT_EQ(c.Decode(), set);
}

TEST(CompressedPlainSetTest, CompressionActuallyCompresses) {
  // Dense lists have small gaps: compressed size must be far below the
  // uncompressed 0.5 words/element.
  Xoshiro256 rng(32);
  ElemList set = SampleSortedSet(100000, 1 << 18, rng);  // avg gap < 4
  CompressedPlainSet c(set, EliasCodec::kDelta);
  EXPECT_LT(c.SizeInWords(), set.size() / 4);
}

TEST(CompressedLookupSetTest, BucketDecodeRoundTrip) {
  Xoshiro256 rng(33);
  ElemList set = SampleSortedSet(5000, 1 << 20, rng);
  for (auto codec : {EliasCodec::kGamma, EliasCodec::kDelta}) {
    CompressedLookupSet c(set, codec, 5);  // B = 32 requested; the
    // structure may widen buckets to keep the directory O(n).
    ElemList all;
    std::vector<Elem> bucket;
    for (std::uint32_t b = 0; b < c.num_buckets(); ++b) {
      c.DecodeBucket(b, &bucket);
      for (Elem x : bucket) {
        EXPECT_EQ(x >> c.bucket_bits(), b);
        all.push_back(x);
      }
    }
    EXPECT_EQ(all, set);
    // Out-of-range bucket decodes empty.
    c.DecodeBucket(c.num_buckets() + 10, &bucket);
    EXPECT_TRUE(bucket.empty());
  }
}

TEST(CompressedScanSetTest, AllCodecsAgreeWithUncompressed) {
  Xoshiro256 rng(34);
  auto lists = GenerateIntersectingSets({3000, 5000, 8000}, 21, 1 << 22, rng);
  ElemList expected = GroundTruth(lists);
  for (auto codec :
       {ScanCodec::kLowbits, ScanCodec::kGamma, ScanCodec::kDelta}) {
    CompressedScanIntersection::Options o;
    o.codec = codec;
    CompressedScanIntersection alg(o);
    EXPECT_EQ(alg.IntersectLists(lists), expected);
  }
}

TEST(CompressedScanSetTest, MultipleHashImages) {
  Xoshiro256 rng(35);
  auto lists = GenerateIntersectingSets({2000, 2000}, 19, 1 << 20, rng);
  ElemList expected = GroundTruth(lists);
  for (int m : {1, 2, 4}) {
    CompressedScanIntersection::Options o;
    o.m = m;
    CompressedScanIntersection alg(o);
    EXPECT_EQ(alg.IntersectLists(lists), expected) << "m=" << m;
  }
}

TEST(CompressedScanSetTest, SingleSetDecodesFully) {
  Xoshiro256 rng(36);
  ElemList set = SampleSortedSet(4000, 1 << 22, rng);
  CompressedScanIntersection alg;
  EXPECT_EQ(alg.IntersectLists(std::vector<ElemList>{set}), set);
}

// ---------------------------------------------------------------------------
// The g-space primitives the planner chains compressed inputs through.
// Sizes sweep the resolution t = ceil(log2(n / 8)): t = 0 (n <= 8, 32 low
// bits per field) up to t = 13.
// ---------------------------------------------------------------------------

constexpr std::size_t kGvalSizes[] = {0, 1, 5, 8, 9, 64, 65, 1000, 40000};

/// The sorted g(x) of every element: what a compressed set stores.
std::vector<std::uint32_t> SortedGvals(const CompressedScanIntersection& alg,
                                       const ElemList& set) {
  std::vector<std::uint32_t> g;
  for (Elem x : set) {
    g.push_back(static_cast<std::uint32_t>(alg.permutation().Apply(x)));
  }
  std::sort(g.begin(), g.end());
  return g;
}

TEST(CompressedScanGvalsTest, DecodeGvalsEqualsSortedGvals) {
  Xoshiro256 rng(40);
  for (auto codec :
       {ScanCodec::kLowbits, ScanCodec::kGamma, ScanCodec::kDelta}) {
    for (int m : {0, 1, 2}) {
      CompressedScanIntersection::Options o;
      o.codec = codec;
      o.m = m;
      o.group_index = m == 0;  // the planner's sets
      CompressedScanIntersection alg(o);
      for (std::size_t n : kGvalSizes) {
        ElemList set = SampleSortedSet(n, 1 << 24, rng);
        auto prepared = alg.Preprocess(set);
        const auto& c = static_cast<const CompressedScanSet&>(*prepared);
        EXPECT_EQ(c.m(), m);
        std::vector<std::uint32_t> out(n);
        alg.DecodeGvals(c, out.data());
        EXPECT_EQ(out, SortedGvals(alg, set))
            << alg.name() << " m=" << m << " n=" << n << " t=" << c.t();
      }
    }
  }
}

TEST(CompressedScanGvalsTest, FilterGvalsEqualsGspaceIntersection) {
  Xoshiro256 rng(41);
  for (int m : {0, 1, 2}) {
    CompressedScanIntersection::Options o;
    o.m = m;
    o.group_index = m != 1;  // probes with and without the index
    CompressedScanIntersection alg(o);
    for (std::size_t n : kGvalSizes) {
      ElemList set = SampleSortedSet(n, 1 << 24, rng);
      auto prepared = alg.Preprocess(set);
      const auto& c = static_cast<const CompressedScanSet&>(*prepared);
      const std::vector<std::uint32_t> members = SortedGvals(alg, set);
      const int low_bits = 32 - c.t();
      const std::uint64_t groups = std::uint64_t{1} << c.t();
      for (int trial = 0; trial < 4; ++trial) {
        // A random share of the members, random g-values (non-members but
        // for chance hits), and both ends of the groups around the first
        // skip-block boundaries and of the last group.
        std::vector<std::uint32_t> cand;
        for (std::uint32_t g : members) {
          if (rng.Below(4) == 0) cand.push_back(g);
        }
        const std::size_t extra = rng.Below(2 * n + 16);
        for (std::size_t i = 0; i < extra; ++i) {
          cand.push_back(static_cast<std::uint32_t>(rng.Next()));
        }
        for (std::uint64_t z : {std::uint64_t{0}, std::uint64_t{7},
                                std::uint64_t{8}, std::uint64_t{9},
                                groups - 1}) {
          if (z >= groups) continue;
          cand.push_back(static_cast<std::uint32_t>(z << low_bits));
          cand.push_back(static_cast<std::uint32_t>(((z + 1) << low_bits) - 1));
        }
        std::sort(cand.begin(), cand.end());
        cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
        std::vector<std::uint32_t> expected;
        std::set_intersection(cand.begin(), cand.end(), members.begin(),
                              members.end(), std::back_inserter(expected));

        std::vector<std::uint32_t> out(cand.size());
        out.resize(alg.FilterGvals(c, cand, out.data()));
        EXPECT_EQ(out, expected) << "m=" << m << " n=" << n << " t=" << c.t();
        // In place: the output may alias the candidates.
        std::vector<std::uint32_t> in_place = cand;
        in_place.resize(alg.FilterGvals(c, in_place, in_place.data()));
        EXPECT_EQ(in_place, expected) << "in place, m=" << m << " n=" << n;
      }
    }
  }
}

std::vector<simd::Level> AvailableLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  const simd::Level best = simd::DetectCpuLevel();
  if (best >= simd::Level::kAvx2) levels.push_back(simd::Level::kAvx2);
  return levels;
}

TEST(CompressedScanGvalsTest, CraftedGroupsMatchOnEveryTier) {
  // g-values chosen first and mapped back through g^-1: n = 70000 gives
  // t = 14 (18 low bits per field).  One group holds 4000 g-values, so
  // the headers after it in its decode block lie past the 16-bit group
  // index (the probe walks to them); another holds 12 (a long group,
  // scanned field by field); the last group holds a few members near the
  // end of the stream.
  constexpr int kT = 14;
  constexpr int kLowBits = 32 - kT;
  constexpr std::uint64_t kHuge = 8 * 100 + 2;  // block 100, third group
  constexpr std::uint64_t kLong = 8 * 300 + 7;
  constexpr std::uint64_t kLast = (std::uint64_t{1} << kT) - 1;
  Xoshiro256 rng(42);
  auto in_group = [&](std::uint64_t z) {
    return static_cast<std::uint32_t>((z << kLowBits) |
                                      rng.Below(std::uint64_t{1} << kLowBits));
  };
  std::vector<std::uint32_t> gvals;
  for (int i = 0; i < 4000; ++i) gvals.push_back(in_group(kHuge));
  for (int i = 0; i < 12; ++i) gvals.push_back(in_group(kLong));
  for (int i = 0; i < 3; ++i) gvals.push_back(in_group(kLast));
  while (gvals.size() < 70000) {
    gvals.push_back(static_cast<std::uint32_t>(rng.Next()));
  }
  std::sort(gvals.begin(), gvals.end());
  gvals.erase(std::unique(gvals.begin(), gvals.end()), gvals.end());

  for (int m : {0, 1}) {
    CompressedScanIntersection::Options o;
    o.m = m;
    o.group_index = true;
    CompressedScanIntersection alg(o);
    ElemList set;
    for (std::uint32_t g : gvals) {
      set.push_back(static_cast<Elem>(alg.permutation().Invert(g)));
    }
    std::sort(set.begin(), set.end());
    auto prepared = alg.Preprocess(set);
    const auto& c = static_cast<const CompressedScanSet&>(*prepared);
    ASSERT_EQ(c.t(), kT);
    ASSERT_EQ(SortedGvals(alg, set), gvals);
    const auto& offsets = c.group_offsets();
    ASSERT_EQ(offsets.size(), std::size_t{1} << kT);
    EXPECT_NE(offsets[kHuge], simd::kNoGroupOffset);
    for (std::uint64_t z = kHuge + 1; z < kHuge - kHuge % 8 + 8; ++z) {
      EXPECT_EQ(offsets[z], simd::kNoGroupOffset) << "z=" << z;
    }

    // Candidates: a share of the members; every member of the huge group
    // and of the groups behind it in its block; random g-values; both ends
    // of those groups and of the long and last groups.
    std::vector<std::uint32_t> cand;
    for (std::uint32_t g : gvals) {
      const std::uint64_t z = g >> kLowBits;
      const bool crafted = (z >= kHuge && z < kHuge - kHuge % 8 + 8) ||
                           z == kLong || z == kLast;
      if (crafted || rng.Below(3) == 0) cand.push_back(g);
    }
    for (int i = 0; i < 20000; ++i) {
      cand.push_back(static_cast<std::uint32_t>(rng.Next()));
    }
    for (std::uint64_t z = kHuge; z < kHuge - kHuge % 8 + 8; ++z) {
      cand.push_back(static_cast<std::uint32_t>(z << kLowBits));
      cand.push_back(static_cast<std::uint32_t>(((z + 1) << kLowBits) - 1));
    }
    for (std::uint64_t z : {kLong, kLast}) {
      cand.push_back(static_cast<std::uint32_t>(z << kLowBits));
      cand.push_back(static_cast<std::uint32_t>(((z + 1) << kLowBits) - 1));
    }
    std::sort(cand.begin(), cand.end());
    cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
    std::vector<std::uint32_t> expected;
    std::set_intersection(cand.begin(), cand.end(), gvals.begin(),
                          gvals.end(), std::back_inserter(expected));

    for (simd::Level level : AvailableLevels()) {
      const simd::DecodeKernels& tier = simd::DecodeKernelsForLevel(level);
      const simd::LowbitsView view = c.View(alg.permutation().domain_bits());
      std::vector<std::uint32_t> decoded(gvals.size());
      tier.lowbits_decode(view, decoded.data());
      EXPECT_EQ(decoded, gvals) << "m=" << m
                                << " level=" << static_cast<int>(level);
      std::vector<std::uint32_t> out(cand.size());
      out.resize(tier.lowbits_filter(view, cand.data(), cand.size(),
                                     out.data()));
      EXPECT_EQ(out, expected)
          << "m=" << m << " level=" << static_cast<int>(level);
    }
    std::vector<std::uint32_t> out(cand.size());
    out.resize(alg.FilterGvals(c, cand, out.data()));
    EXPECT_EQ(out, expected) << "m=" << m;
  }
}

TEST(CompressedScanGvalsTest, FilterGvalsNeedsLowbits) {
  CompressedScanIntersection::Options o;
  o.codec = ScanCodec::kGamma;
  CompressedScanIntersection alg(o);
  auto prepared = alg.Preprocess(ElemList{1, 2, 3});
  const auto& c = static_cast<const CompressedScanSet&>(*prepared);
  std::vector<std::uint32_t> cand = {1, 2}, out(2);
  EXPECT_THROW(alg.FilterGvals(c, cand, out.data()), std::invalid_argument);
}

TEST(CompressedSpaceTest, PaperSpaceRelationships) {
  // Section 4.1: compressed Merge < compressed Lookup < RanGroupScan_Lowbits
  // in space; all three far below the m=4 uncompressed scan structure.
  Xoshiro256 rng(37);
  ElemList set = SampleSortedSet(100000, 1 << 22, rng);  // 1% dense

  CompressedPlainSet merge_delta(set, EliasCodec::kDelta);
  CompressedLookupSet lookup_delta(set, EliasCodec::kDelta, 5);

  CompressedScanIntersection::Options lo;
  lo.codec = ScanCodec::kLowbits;
  CompressedScanIntersection lowbits(lo);
  auto scan_lowbits = lowbits.Preprocess(set);

  RanGroupScanIntersection uncompressed;
  auto scan_plain = uncompressed.Preprocess(set);

  // The γ/δ-coded inverted index is the smallest; the Lowbits scan
  // structure costs more than compressed Merge but far less than the
  // uncompressed block structure.  (The Lookup directory is universe-
  // proportional, so its relation to Lowbits depends on density; the fig08
  // bench reports the measured ratios.)
  EXPECT_LT(merge_delta.SizeInWords(), lookup_delta.SizeInWords());
  EXPECT_LT(merge_delta.SizeInWords(), scan_lowbits->SizeInWords());
  EXPECT_LT(scan_lowbits->SizeInWords(), scan_plain->SizeInWords());
}

TEST(CompressedMergeTest, KWayStreamingDecode) {
  Xoshiro256 rng(38);
  auto lists =
      GenerateIntersectingSets({1000, 2000, 3000, 4000}, 15, 1 << 22, rng);
  ElemList expected = GroundTruth(lists);
  for (auto name : {"Merge_Gamma", "Merge_Delta"}) {
    CompressedMergeIntersection alg(name == std::string("Merge_Gamma")
                                        ? EliasCodec::kGamma
                                        : EliasCodec::kDelta);
    EXPECT_EQ(alg.IntersectLists(lists), expected) << name;
  }
}

TEST(CompressedLookupTest, SkewedProbing) {
  Xoshiro256 rng(39);
  auto lists = GenerateIntersectingSets({100, 50000}, 9, 1 << 24, rng);
  ElemList expected = GroundTruth(lists);
  CompressedLookupIntersection alg(EliasCodec::kDelta);
  EXPECT_EQ(alg.IntersectLists(lists), expected);
}

}  // namespace
}  // namespace fsi
