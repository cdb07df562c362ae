// Equivalence tests for the SIMD kernel layer (src/simd/).
//
// Two layers of guarantees:
//  * Kernel level: every vector tier the machine can execute produces
//    bit-identical results to the scalar tier (intersect_skewed: to
//    std::set_intersection, on every tier), on adversarial inputs —
//    empty/singleton sets, dense overlap, disjoint interleavings,
//    unaligned lengths around the 4/8/16 lane widths, and values at the
//    uint32 extremes (0 and near-max, which exercise the sign-bias trick
//    and the masked-lane zero-fill).
//  * Algorithm level: for every registered algorithm, the default spec
//    (CPU-dispatched kernels) and the ":simd=off" spec (scalar kernels)
//    produce identical results through every Engine sink, with identical
//    QueryStats scan counts.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fsi.h"
#include "simd/intersect_kernels.h"

namespace fsi {
namespace {

using U32List = std::vector<std::uint32_t>;

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

U32List SortedUnique(U32List values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

U32List RandomSortedSet(std::mt19937_64& rng, std::size_t n,
                        std::uint32_t universe) {
  std::set<std::uint32_t> s;
  std::uniform_int_distribution<std::uint32_t> dist(0, universe);
  while (s.size() < n) s.insert(dist(rng));
  return U32List(s.begin(), s.end());
}

/// The adversarial pair catalogue shared by every kernel test.
std::vector<std::pair<U32List, U32List>> AdversarialPairs() {
  std::vector<std::pair<U32List, U32List>> pairs;
  // Empty and singleton shapes.
  pairs.push_back({{}, {}});
  pairs.push_back({{}, {1, 2, 3}});
  pairs.push_back({{5}, {}});
  pairs.push_back({{5}, {5}});
  pairs.push_back({{5}, {6}});
  // Identical lists (dense overlap) and fully disjoint interleavings.
  U32List dense;
  for (std::uint32_t i = 0; i < 100; ++i) dense.push_back(3 * i);
  pairs.push_back({dense, dense});
  U32List evens;
  U32List odds;
  for (std::uint32_t i = 0; i < 64; ++i) {
    evens.push_back(2 * i);
    odds.push_back(2 * i + 1);
  }
  pairs.push_back({evens, odds});
  // Unaligned lengths bracketing the 4/8/16 lane widths, partial overlap.
  for (std::size_t na : {1u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 31u}) {
    for (std::size_t nb : {1u, 4u, 7u, 8u, 9u, 16u, 17u, 33u}) {
      U32List a;
      U32List b;
      for (std::size_t i = 0; i < na; ++i) {
        a.push_back(static_cast<std::uint32_t>(2 * i));
      }
      for (std::size_t i = 0; i < nb; ++i) {
        b.push_back(static_cast<std::uint32_t>(3 * i));
      }
      pairs.push_back({std::move(a), std::move(b)});
    }
  }
  // Values at the uint32 extremes: 0 (matches the maskload zero-fill) and
  // near UINT32_MAX (exercises the signed-compare bias).
  U32List low = {0, 1, 2, 7, 8};
  U32List high;
  for (std::uint32_t i = 0; i < 20; ++i) high.push_back(0xFFFFFFFFu - 2 * i);
  std::sort(high.begin(), high.end());
  pairs.push_back({low, low});
  pairs.push_back({high, high});
  pairs.push_back({low, high});
  U32List mixed = SortedUnique({0, 5, 8, 0x7FFFFFFFu, 0x80000000u,
                                0x80000001u, 0xFFFFFFFEu, 0xFFFFFFFFu});
  pairs.push_back({mixed, mixed});
  pairs.push_back({mixed, low});
  // Random fuzz: varying densities and sizes straddling the block widths.
  std::mt19937_64 rng(0x51D0CAFE);
  for (int round = 0; round < 40; ++round) {
    std::size_t na = rng() % 200;
    std::size_t nb = rng() % 200;
    std::uint32_t universe = (round % 2 == 0) ? 255 : (1u << 16);
    pairs.push_back({RandomSortedSet(rng, na, universe),
                     RandomSortedSet(rng, nb, universe)});
  }
  return pairs;
}

TEST(SimdCpuFeaturesTest, LevelNamesAndOrdering) {
  EXPECT_EQ(simd::LevelName(simd::Level::kScalar), "scalar");
  EXPECT_EQ(simd::LevelName(simd::Level::kAvx2), "avx2");
  // The active level never exceeds what the CPU supports.
  EXPECT_LE(static_cast<int>(simd::ActiveLevel()),
            static_cast<int>(simd::DetectCpuLevel()));
}

TEST(SimdCpuFeaturesTest, KernelsForLevelClampsToCpu) {
  const simd::Kernels& table = simd::KernelsForLevel(simd::Level::kAvx2);
  EXPECT_LE(static_cast<int>(table.level),
            static_cast<int>(simd::DetectCpuLevel()));
  EXPECT_EQ(simd::KernelsForLevel(simd::Level::kScalar).level,
            simd::Level::kScalar);
}

TEST(SimdModeTest, ParseModeAcceptsAndRejects) {
  EXPECT_EQ(simd::ParseMode("auto"), simd::Mode::kAuto);
  EXPECT_EQ(simd::ParseMode("on"), simd::Mode::kAuto);
  EXPECT_EQ(simd::ParseMode("off"), simd::Mode::kOff);
  EXPECT_EQ(simd::ParseMode("scalar"), simd::Mode::kOff);
  EXPECT_THROW(simd::ParseMode("fast"), std::invalid_argument);
  EXPECT_THROW(simd::ParseMode(""), std::invalid_argument);
}

TEST(SimdModeTest, RegistryRejectsBadSimdValue) {
  EXPECT_THROW(AlgorithmRegistry::Global().Create("Merge:simd=banana"),
               std::invalid_argument);
  // And accepts both documented values on every wired algorithm.
  for (const char* spec :
       {"Merge:simd=off", "SvS:simd=off", "BaezaYates:simd=off",
        "IntGroup:simd=off", "RanGroupScan:simd=off", "Hybrid:simd=off",
        "Merge:simd=auto", "RanGroupScan:simd=auto"}) {
    EXPECT_NO_THROW(AlgorithmRegistry::Global().Create(spec)) << spec;
  }
}

TEST(SimdKernelTest, IntersectPairMatchesScalarOnEveryTier) {
  const simd::Kernels& scalar = simd::ScalarKernels();
  for (simd::Level level : AvailableLevels()) {
    const simd::Kernels& table = simd::KernelsForLevel(level);
    for (const auto& [a, b] : AdversarialPairs()) {
      U32List expect;
      scalar.intersect_pair(a.data(), a.size(), b.data(), b.size(), &expect);
      U32List got;
      table.intersect_pair(a.data(), a.size(), b.data(), b.size(), &got);
      EXPECT_EQ(got, expect)
          << simd::LevelName(level) << " |a|=" << a.size()
          << " |b|=" << b.size();
      // Appending must preserve prior content (the RanGroupScan group loop
      // accumulates into one vector).
      U32List appended = {42};
      table.intersect_pair(a.data(), a.size(), b.data(), b.size(), &appended);
      ASSERT_GE(appended.size(), 1u);
      EXPECT_EQ(appended.front(), 42u);
      EXPECT_EQ(U32List(appended.begin() + 1, appended.end()), expect);
    }
  }
}

TEST(SimdKernelTest, LowerBoundMatchesScalarOnEveryTier) {
  std::mt19937_64 rng(0xB01DFACE);
  for (simd::Level level : AvailableLevels()) {
    const simd::Kernels& table = simd::KernelsForLevel(level);
    for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u,
                          31u, 32u, 33u, 63u, 64u, 65u, 200u}) {
      U32List sorted = RandomSortedSet(rng, n, 500);
      // Probe below, above, at, and between every element.
      U32List probes = {0, 0xFFFFFFFFu, 0x80000000u};
      for (std::uint32_t v : sorted) {
        probes.push_back(v);
        if (v > 0) probes.push_back(v - 1);
        if (v < 0xFFFFFFFFu) probes.push_back(v + 1);
      }
      for (std::uint32_t x : probes) {
        EXPECT_EQ(table.lower_bound(sorted.data(), sorted.size(), x),
                  simd::ScalarKernels().lower_bound(sorted.data(),
                                                    sorted.size(), x))
            << simd::LevelName(level) << " n=" << n << " x=" << x;
      }
    }
  }
}

TEST(SimdKernelTest, GallopMatchesScalarOnEveryTier) {
  std::mt19937_64 rng(0x6A110);
  U32List sorted = RandomSortedSet(rng, 300, 3000);
  for (simd::Level level : AvailableLevels()) {
    const simd::Kernels& table = simd::KernelsForLevel(level);
    for (std::size_t lo : {0u, 1u, 7u, 64u, 299u, 300u, 301u}) {
      for (std::uint32_t x : {0u, 1u, 500u, 1500u, 2999u, 3000u, 0xFFFFFFFFu}) {
        EXPECT_EQ(table.gallop_ge(sorted.data(), sorted.size(), lo, x),
                  simd::ScalarKernels().gallop_ge(sorted.data(), sorted.size(),
                                                  lo, x))
            << simd::LevelName(level) << " lo=" << lo << " x=" << x;
      }
    }
  }
}

/// Runs `table.intersect_skewed` on exact-size heap copies of the inputs,
/// so AddressSanitizer flags any read past either end, into a separate
/// buffer and then in place over `small`; both must equal
/// std::set_intersection.
void ExpectSkewedMatches(const simd::Kernels& table, const U32List& small,
                         const U32List& large) {
  U32List expect;
  std::set_intersection(small.begin(), small.end(), large.begin(),
                        large.end(), std::back_inserter(expect));
  auto heap_copy = [](const U32List& v) {
    auto copy = std::make_unique<std::uint32_t[]>(v.size());
    std::copy(v.begin(), v.end(), copy.get());
    return copy;
  };
  const auto s = heap_copy(small);
  const auto l = heap_copy(large);
  const auto out = std::make_unique<std::uint32_t[]>(small.size());
  std::size_t n = table.intersect_skewed(s.get(), small.size(), l.get(),
                                         large.size(), out.get());
  EXPECT_EQ(U32List(out.get(), out.get() + n), expect)
      << simd::LevelName(table.level) << " ns=" << small.size()
      << " nl=" << large.size();
  n = table.intersect_skewed(s.get(), small.size(), l.get(), large.size(),
                             s.get());
  EXPECT_EQ(U32List(s.get(), s.get() + n), expect)
      << simd::LevelName(table.level) << " in place, ns=" << small.size()
      << " nl=" << large.size();
}

/// A sorted set of `n` values with gaps of 2..5, starting at `first` (so
/// v + 1 is never a member), optionally ending in UINT32_MAX.
U32List GappedSet(std::mt19937_64& rng, std::size_t n, std::uint32_t first,
                  bool with_max) {
  U32List v;
  v.reserve(n);
  std::uint32_t x = first;
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(x);
    x += 2 + static_cast<std::uint32_t>(rng() % 4);
  }
  if (with_max && !v.empty()) v.back() = 0xFFFFFFFFu;
  return v;
}

/// Exactly `ns` candidates against `large` (fewer only when `large` has
/// too few values to draw from): first the last element (past the last
/// full 32-block), the uint32 extremes, the value just past the end and
/// the other tail elements, then members and v + 1 non-members at random,
/// half of them at the first or last element of a 32-block.
U32List SkewedCandidates(std::mt19937_64& rng, const U32List& large,
                         std::size_t ns) {
  U32List wanted = {0u, 0xFFFFFFFFu};
  if (!large.empty()) {
    wanted.insert(wanted.begin(), large.back());
    wanted.push_back(large.back() + 1);  // wraps to 0 past the max
    for (std::size_t j = large.size() / 32 * 32; j < large.size(); ++j) {
      wanted.push_back(large[j]);
    }
  }
  std::set<std::uint32_t> c;
  for (std::size_t j = 0; j < wanted.size() && c.size() < ns; ++j) {
    c.insert(wanted[j]);
  }
  while (!large.empty() && c.size() < std::min(ns, 2 * large.size())) {
    std::size_t j = rng() % large.size();
    if (rng() % 2 == 0) {  // a block's first or last element
      j = std::min(j / 32 * 32 + (rng() % 2 == 0 ? 0 : 31), large.size() - 1);
    }
    c.insert(rng() % 2 == 0 ? large[j] : large[j] + 1);
  }
  return U32List(c.begin(), c.end());
}

/// Up to n distinct sorted values in [offset, offset + universe).
U32List SampledSet(std::mt19937_64& rng, std::size_t n, std::uint32_t offset,
                   std::uint32_t universe) {
  U32List v(n);
  for (std::uint32_t& x : v) {
    x = offset + static_cast<std::uint32_t>(rng() % universe);
  }
  return SortedUnique(std::move(v));
}

TEST(SimdKernelTest, IntersectSkewedMatchesScalarOnEveryTier) {
  std::mt19937_64 rng(0x5CE3ED);
  std::vector<std::pair<U32List, U32List>> cases = {
      {{}, {}}, {{}, {1, 2, 3}}, {{5}, {}}, {{0}, {0}},
      {{0xFFFFFFFFu}, {0xFFFFFFFFu}}, {{0, 0xFFFFFFFFu}, {1, 0xFFFFFFFEu}}};
  // The ratios bracket the points where the search switches from galloping
  // to superblocks (16:1) and back (4096:1); the large sizes are exact multiples of the ratio and off by
  // amounts that are no multiple of 32 or 256.
  for (std::size_t ratio : {1u, 3u, 4u, 15u, 16u, 17u, 255u, 256u, 4095u,
                            4096u, 4097u, 65536u}) {
    for (std::size_t ns : {1u, 2u, 5u, 40u}) {
      if (ratio * ns > (1u << 18)) continue;
      for (std::size_t extra : {0u, 1u, 31u, 257u}) {
        const std::size_t nl = ratio * ns + extra;
        const bool extremes = extra % 2 == 1;
        U32List large = GappedSet(rng, nl, extremes ? 0 : 7, extremes);
        U32List small = SkewedCandidates(rng, large, ns);
        cases.push_back({std::move(small), std::move(large)});
      }
    }
  }
  for (simd::Level level : AvailableLevels()) {
    const simd::Kernels& table = simd::KernelsForLevel(level);
    for (const auto& [small, large] : cases) {
      ExpectSkewedMatches(table, small, large);
    }
  }
}

TEST(SimdKernelTest, IntersectSkewedRandomSweep) {
  std::mt19937_64 rng(0x5EE9);
  const std::size_t iters = 200 * StressIters();
  for (std::size_t iter = 0; iter < iters && !HasFailure(); ++iter) {
    const std::size_t ns = rng() % 300;
    const std::size_t nl = (rng() % 301) << (rng() % 10);
    // Dense universes make many hits, sparse ones almost none; half the
    // rounds sit at the top of the uint32 range.
    const std::uint32_t universe =
        static_cast<std::uint32_t>((ns + nl + 1) * (1 + rng() % 8));
    const std::uint32_t offset = rng() % 2 == 0 ? 0 : 0xFFFFFFFFu - universe;
    const U32List small = SampledSet(rng, ns, offset, universe);
    const U32List large = SampledSet(rng, nl, offset, universe);
    for (simd::Level level : AvailableLevels()) {
      ExpectSkewedMatches(simd::KernelsForLevel(level), small, large);
    }
  }
}

TEST(SimdKernelTest, MatchAnyMatchesScalarOnEveryTier) {
  // match_any must work on *unsorted* inputs (IntGroup's (h, x)-ordered
  // groups) and must not be fooled by zero-filled masked lanes.
  std::vector<std::pair<U32List, U32List>> cases = {
      {{}, {}},
      {{0}, {}},
      {{0}, {0}},
      {{0}, {1, 2, 3}},
      {{3, 1, 2}, {2, 9, 1}},
      {{7, 0, 5}, {0, 0xFFFFFFFFu, 5, 9, 11, 13, 15, 17, 19}},
      {{0xFFFFFFFFu, 0x80000000u}, {0x80000000u, 1, 2, 3, 4, 5, 6, 7, 8}},
  };
  std::mt19937_64 rng(0xAB5E);
  for (int round = 0; round < 30; ++round) {
    U32List a = RandomSortedSet(rng, rng() % 20, 64);
    U32List b = RandomSortedSet(rng, rng() % 40, 64);
    std::shuffle(a.begin(), a.end(), rng);
    std::shuffle(b.begin(), b.end(), rng);
    cases.push_back({std::move(a), std::move(b)});
  }
  for (simd::Level level : AvailableLevels()) {
    const simd::Kernels& table = simd::KernelsForLevel(level);
    for (const auto& [a, b] : cases) {
      U32List expect;
      simd::ScalarKernels().match_any(a.data(), a.size(), b.data(), b.size(),
                                      &expect);
      U32List got;
      table.match_any(a.data(), a.size(), b.data(), b.size(), &got);
      EXPECT_EQ(got, expect) << simd::LevelName(level);
    }
  }
}

// ---------------------------------------------------------------------------
// Algorithm-level equivalence: dispatched vs scalar through the Engine.
// ---------------------------------------------------------------------------

/// True when the descriptor's option help advertises the "simd" key.
bool SupportsSimdOption(const AlgorithmDescriptor& d) {
  return d.options_help.find("simd=") != std::string::npos;
}

std::vector<std::vector<ElemList>> AdversarialWorkloads() {
  std::vector<std::vector<ElemList>> workloads;
  for (const auto& [a, b] : AdversarialPairs()) {
    workloads.push_back({a, b});
  }
  // Three-set queries for the k-way paths.
  std::mt19937_64 rng(0x3A3A);
  for (int round = 0; round < 8; ++round) {
    workloads.push_back({RandomSortedSet(rng, 50 + rng() % 100, 1 << 12),
                         RandomSortedSet(rng, 50 + rng() % 100, 1 << 12),
                         RandomSortedSet(rng, 50 + rng() % 100, 1 << 12)});
  }
  return workloads;
}

TEST(SimdAlgorithmEquivalenceTest, EveryAlgorithmEverySinkBitIdentical) {
  const auto workloads = AdversarialWorkloads();
  for (const AlgorithmDescriptor* d :
       AlgorithmRegistry::Global().Descriptors(/*include_hidden=*/true)) {
    const std::string base = d->name;
    // Algorithms without a simd knob still run: dispatched vs dispatched
    // (a tautology, but it keeps the sweep over *every* registered name,
    // so a future simd= addition is covered the moment its help says so).
    const std::string scalar_spec =
        SupportsSimdOption(*d) ? base + ":simd=off" : base;
    Engine dispatched(base);
    Engine scalar(scalar_spec);
    for (const auto& lists : workloads) {
      if (lists.size() > dispatched.max_query_sets()) continue;
      std::vector<PreparedSet> pd;
      std::vector<PreparedSet> ps;
      for (const ElemList& l : lists) {
        pd.push_back(dispatched.Prepare(l));
        ps.push_back(scalar.Prepare(l));
      }
      // Materialize (sorted).
      ElemList rd = dispatched.Query(pd).Materialize();
      ElemList rs = scalar.Query(ps).Materialize();
      ASSERT_EQ(rd, rs) << base << " Materialize";
      // Unordered ExecuteInto: identical sequence, not just identical set.
      ElemList ud;
      ElemList us;
      QueryStats sd = dispatched.Query(pd).Unordered().ExecuteInto(&ud);
      QueryStats ss = scalar.Query(ps).Unordered().ExecuteInto(&us);
      ASSERT_EQ(ud, us) << base << " Unordered";
      // Count sink and the structural QueryStats fields.
      EXPECT_EQ(dispatched.Query(pd).Count(), scalar.Query(ps).Count())
          << base;
      EXPECT_EQ(sd.num_sets, ss.num_sets) << base;
      EXPECT_EQ(sd.elements_scanned, ss.elements_scanned) << base;
      EXPECT_EQ(sd.groups_probed, ss.groups_probed) << base;
      EXPECT_EQ(sd.result_size, ss.result_size) << base;
    }
  }
}

TEST(SimdAlgorithmEquivalenceTest, BatchRunnerAgreesAcrossKernels) {
  // The BatchRunner path (what a serving deployment runs) must also be
  // kernel-invariant.
  std::mt19937_64 rng(0xBA7C4);
  std::vector<ElemList> lists;
  for (int i = 0; i < 12; ++i) {
    lists.push_back(RandomSortedSet(rng, 200 + rng() % 400, 1 << 14));
  }
  for (const char* spec : {"Merge", "RanGroupScan", "Hybrid"}) {
    Engine dispatched(spec);
    Engine scalar(std::string(spec) + ":simd=off");
    std::vector<PreparedSet> pd;
    std::vector<PreparedSet> ps;
    for (const ElemList& l : lists) {
      pd.push_back(dispatched.Prepare(l));
      ps.push_back(scalar.Prepare(l));
    }
    std::vector<BatchQuery> qd;
    std::vector<BatchQuery> qs;
    for (std::size_t i = 0; i + 1 < lists.size(); i += 2) {
      qd.push_back(BatchQuery{&pd[i], &pd[i + 1]});
      qs.push_back(BatchQuery{&ps[i], &ps[i + 1]});
    }
    BatchRunner rd(dispatched, {.num_threads = 4});
    BatchRunner rs(scalar, {.num_threads = 4});
    EXPECT_EQ(rd.Materialize(qd), rs.Materialize(qs)) << spec;
  }
}

}  // namespace
}  // namespace fsi
