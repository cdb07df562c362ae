// Read-while-write verification for mutable sets: lock-free readers
// (Query terminals, BatchRunner workers, Contains probes) racing live
// Insert/Erase writers and background compaction.  Built to run under
// ThreadSanitizer — the tsan CI preset executes this binary with full
// race detection — but every check is also a functional assertion that
// holds in any build.
//
// The centrepiece is snapshot validation by versioned markers: a writer
// steps a mutable set through V precomputed versions, each tagged by a
// unique marker element and a monotone prefix of inserted/erased
// elements.  Because queries snapshot atomically, EVERY observed result
// must decode to one of the few states that exist at some instant —
// a torn read (half-applied version) would produce a marker/prefix
// combination no instantaneous state ever had.
//
// FSI_STRESS_ITERS scales the version counts and churn volume (default
// 1; the nightly CI leg runs 10).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fsi.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace fsi {
namespace {

std::size_t StressIters() {
  const char* env = std::getenv("FSI_STRESS_ITERS");
  if (env == nullptr) return 1;
  long v = std::strtol(env, nullptr, 10);
  return v > 0 ? static_cast<std::size_t>(v) : 1;
}

// ---------------------------------------------------------------------------
// Versioned-marker snapshot validation.
// ---------------------------------------------------------------------------
//
// Element layout (disjoint ranges):
//   base        [0, kBaseUniverse)        static members of the set
//   D-pool      [kDPool, kDPool + V]      erased one per version, in order
//   E-pool      [kEPool, kEPool + V]      inserted one per version, in order
//   markers     [kMarker, kMarker + V]    exactly one live per version
//
// Version v of the mutable set is
//   (base_sample \ {D_1..D_v}) U {E_1..E_v} U {M_v}
// and the transition v -> v+1 applies, in this order:
//   Erase(D_{v+1});  Insert(E_{v+1});  Insert(M_{v+1});  Erase(M_v).
//
// The only instantaneous states during the transition are therefore
// (writing c = erased-D count, e = inserted-E count, M = live markers):
//   (v,   v,   {M_v})            the version itself
//   (v+1, v,   {M_v})            after the D erase
//   (v+1, v+1, {M_v})            after the E insert
//   (v+1, v+1, {M_v, M_v+1})     both markers live
//   (v+1, v+1, {M_v+1})          = version v+1
// ValidateObservation() accepts exactly this set and nothing else.

constexpr Elem kBaseUniverse = 1 << 20;
constexpr Elem kDPool = 1 << 20;
constexpr Elem kEPool = 1 << 21;
constexpr Elem kMarker = 1 << 22;

struct MarkerWorld {
  ElemList companion;      // the immutable co-set every query intersects
  ElemList base_expected;  // (base part of the result) -- constant
  std::size_t versions = 0;
};

// Decodes one observed result and checks it against the state machine
// above.  Returns the highest live marker's version (what the snapshot
// had committed), or -1 with a test failure on an impossible state.
long ValidateObservation(const MarkerWorld& world, const ElemList& result,
                         const std::string& label) {
  ElemList base_part;
  std::vector<long> d_remaining, e_present, markers;
  for (Elem x : result) {
    if (x >= kMarker) {
      markers.push_back(static_cast<long>(x - kMarker));
    } else if (x >= kEPool) {
      e_present.push_back(static_cast<long>(x - kEPool));
    } else if (x >= kDPool) {
      d_remaining.push_back(static_cast<long>(x - kDPool));
    } else {
      base_part.push_back(x);
    }
  }
  EXPECT_EQ(base_part, world.base_expected) << label;
  EXPECT_TRUE(std::is_sorted(result.begin(), result.end())) << label;

  // Markers: one, or two consecutive.
  if (markers.empty() || markers.size() > 2) {
    ADD_FAILURE() << label << ": " << markers.size() << " markers observed";
    return -1;
  }
  long h = markers.back();
  if (markers.size() == 2 && markers[0] != h - 1) {
    ADD_FAILURE() << label << ": non-consecutive markers " << markers[0]
                  << "," << h;
    return -1;
  }

  // E-pool: must be exactly the prefix E_1..E_e.
  long e = static_cast<long>(e_present.size());
  for (long i = 0; i < e; ++i) {
    EXPECT_EQ(e_present[static_cast<std::size_t>(i)], i + 1) << label;
  }
  // D-pool: must be exactly the suffix D_{c+1}..D_V.
  long c = static_cast<long>(world.versions) -
           static_cast<long>(d_remaining.size());
  for (std::size_t i = 0; i < d_remaining.size(); ++i) {
    EXPECT_EQ(d_remaining[i], c + 1 + static_cast<long>(i)) << label;
  }

  // The (c, e, markers) combination must be one of the five legal states.
  bool valid;
  if (markers.size() == 2) {
    valid = (c == h && e == h);
  } else {
    valid = (c == h && e == h) || (c == h + 1 && e == h) ||
            (c == h + 1 && e == h + 1);
  }
  EXPECT_TRUE(valid) << label << ": impossible snapshot c=" << c << " e=" << e
                     << " marker=" << h << " (" << markers.size() << " live)";
  return h;
}

TEST(ReadWhileWriteTest, EveryBatchResultDecodesToAValidSnapshot) {
  const std::size_t versions = 256 * StressIters();
  Engine engine("Planner:calibration=off");
  Xoshiro256 rng(0xbeefULL);

  ElemList base = SampleSortedSet(4000, kBaseUniverse, rng);
  // D-pool elements live in the base (they get erased); E-pool and marker
  // elements do not (they get inserted).
  ElemList initial = base;
  for (std::size_t v = 1; v <= versions; ++v) {
    initial.push_back(kDPool + static_cast<Elem>(v));
  }
  initial.push_back(kMarker + 0);  // version-0 marker
  std::sort(initial.begin(), initial.end());

  // The companion contains half the base sample plus every special
  // element, so each query result carries the full version fingerprint.
  MarkerWorld world;
  world.versions = versions;
  for (std::size_t i = 0; i < base.size(); i += 2) {
    world.companion.push_back(base[i]);
    world.base_expected.push_back(base[i]);
  }
  for (std::size_t v = 1; v <= versions; ++v) {
    world.companion.push_back(kDPool + static_cast<Elem>(v));
    world.companion.push_back(kEPool + static_cast<Elem>(v));
  }
  for (std::size_t v = 0; v <= versions; ++v) {
    world.companion.push_back(kMarker + static_cast<Elem>(v));
  }
  std::sort(world.companion.begin(), world.companion.end());

  PreparedSet target = engine.PrepareMutable(
      initial, {.compact_fill = 0.02, .compact_min = 8});
  PreparedSet companion = engine.Prepare(world.companion);

  std::atomic<long> writer_version{0};
  std::atomic<bool> start{false};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
    for (std::size_t v = 1; v <= versions; ++v) {
      ASSERT_TRUE(target.Erase(kDPool + static_cast<Elem>(v)));
      ASSERT_TRUE(target.Insert(kEPool + static_cast<Elem>(v)));
      ASSERT_TRUE(target.Insert(kMarker + static_cast<Elem>(v)));
      ASSERT_TRUE(target.Erase(kMarker + static_cast<Elem>(v - 1)));
      writer_version.store(static_cast<long>(v), std::memory_order_release);
      std::this_thread::yield();  // give reader snapshots room to interleave
    }
    done.store(true, std::memory_order_release);
  });

  // Readers: BatchRunner batches racing the writer.  Each batch records
  // the writer's committed version bracket [lo, hi]; every result must
  // decode to a marker inside (or adjacent to) that bracket.
  BatchRunner runner(engine, {.num_threads = 4});
  std::vector<BatchQuery> queries(32, BatchQuery{&target, &companion});
  std::size_t batches = 0;
  start.store(true, std::memory_order_release);
  while (!done.load(std::memory_order_acquire) || batches < 4) {
    long lo = writer_version.load(std::memory_order_acquire);
    std::vector<ElemList> results = runner.Materialize(queries);
    long hi = writer_version.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < results.size(); ++i) {
      long h = ValidateObservation(
          world, results[i],
          "batch " + std::to_string(batches) + " query " + std::to_string(i));
      if (h < 0) continue;
      // A snapshot taken inside the batch window can also catch the
      // in-flight transition to hi+1.
      EXPECT_GE(h, lo) << "observed version older than the batch start";
      EXPECT_LE(h, hi + 1) << "observed version newer than the batch end";
    }
    ++batches;
  }
  writer.join();

  // Quiescent: the final state is exactly version V.
  target.WaitForCompaction();
  ElemList last = engine.Query({&target, &companion}).Materialize();
  EXPECT_EQ(ValidateObservation(world, last, "final"),
            static_cast<long>(versions));
  EXPECT_GE(batches, 4u);
}

// ---------------------------------------------------------------------------
// Heavy churn with aggressive background compaction.
// ---------------------------------------------------------------------------

TEST(ReadWhileWriteTest, ChurnWithCompactionConvergesToTheModel) {
  const std::size_t ops_per_writer = 2000 * StressIters();
  Engine engine("Planner:calibration=off");
  Xoshiro256 rng(0x9d2cULL);
  ElemList base = SampleSortedSet(3000, 1 << 16, rng);
  PreparedSet target = engine.PrepareMutable(
      base, {.compact_fill = 0.005, .compact_min = 8});
  PreparedSet probe_set = engine.Prepare(SampleSortedSet(2000, 1 << 16, rng));

  // Two writers own disjoint key ranges above the base universe, so each
  // can track its own final state without coordination.
  constexpr Elem kWriterPool = 1 << 16;
  constexpr Elem kWriterRange = 1 << 14;
  std::vector<std::set<Elem>> owned(2);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      Xoshiro256 wrng(0x77aaULL + w);
      Elem lo = kWriterPool + static_cast<Elem>(w) * kWriterRange;
      for (std::size_t op = 0; op < ops_per_writer; ++op) {
        Elem x = lo + static_cast<Elem>(wrng.Below(kWriterRange));
        if (wrng.Below(3) != 0) {
          EXPECT_EQ(target.Insert(x), owned[w].insert(x).second);
        } else {
          EXPECT_EQ(target.Erase(x), owned[w].erase(x) > 0);
        }
      }
    });
  }
  // Readers: invariants that hold at every instant — base elements below
  // the writer pools are never mutated, and results stay sorted/unique.
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        ElemList out = engine.Query({&target}).Unordered().Materialize();
        std::sort(out.begin(), out.end());
        EXPECT_TRUE(std::adjacent_find(out.begin(), out.end()) == out.end())
            << "duplicate element in a snapshot";
        // The static base prefix must be present verbatim in every
        // snapshot.
        ElemList prefix(out.begin(),
                        std::lower_bound(out.begin(), out.end(), kWriterPool));
        EXPECT_EQ(prefix, base);
        EXPECT_TRUE(target.Contains(base[0]));
        EXPECT_FALSE(target.Contains(kWriterPool + 2 * kWriterRange));
        engine.Query({&target, &probe_set}).Count();  // exercise k=2 fixup
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  target.WaitForCompaction();
  std::set<Elem> model(base.begin(), base.end());
  for (const auto& o : owned) model.insert(o.begin(), o.end());
  EXPECT_EQ(target.size(), model.size());
  ElemList final_list = engine.Query({&target}).Materialize();
  EXPECT_EQ(final_list, ElemList(model.begin(), model.end()));
}

// ---------------------------------------------------------------------------
// Contains across compaction: acknowledged writes stay visible.
// ---------------------------------------------------------------------------
//
// One writer inserts keys kFresh + 0, 1, 2, ... and, after each Insert
// returns, stores the count of acknowledged inserts; a second phase erases
// the same keys in the same order and acknowledges them the same way.  The
// writer pauses on WaitForCompaction() every compact_every writes, so the
// background compactor publishes 2 * 62 = 124 rebuilt states while
// readers probe (scaling the interval with the key count keeps the stress
// leg linear: each rebuild already grows with the keys inserted).
//
// A reader probing key i (with i < inserted, read before the probe) knows:
//   * i < erased read before the probe: the erase was acknowledged, so
//     Contains must be false;
//   * i > erased read after the probe: erase i had not taken effect when
//     the probe read the state (the acknowledgement stored before erase i
//     began would be visible otherwise), so Contains must be true.
// Only the one erase possibly in flight, i == erased, is unconstrained.

TEST(ReadWhileWriteTest, ContainsSeesEveryAcknowledgedWriteAcrossCompaction) {
  const std::size_t keys = 2000 * StressIters();
  const std::size_t compact_every = 32 * StressIters();
  constexpr Elem kFresh = 1 << 16;  // above every base element
  Engine engine("Planner:calibration=off");
  Xoshiro256 rng(0xc0a7ULL);
  ElemList base = SampleSortedSet(3000, kFresh, rng);
  PreparedSet target = engine.PrepareMutable(
      base, {.compact_fill = 1e-6, .compact_min = 4});

  std::atomic<std::size_t> inserted{0};
  std::atomic<std::size_t> erased{0};
  std::atomic<bool> done{false};
  auto write_all = [&](bool (PreparedSet::*write)(Elem),
                       std::atomic<std::size_t>& acknowledged) {
    for (std::size_t i = 0; i < keys; ++i) {
      EXPECT_TRUE((target.*write)(kFresh + static_cast<Elem>(i)));
      acknowledged.store(i + 1, std::memory_order_release);
      if (i % compact_every == compact_every - 1) {
        target.WaitForCompaction();
        EXPECT_EQ(target.delta_size(), 0u) << "compaction did not publish";
      }
    }
  };
  std::thread writer([&] {
    write_all(&PreparedSet::Insert, inserted);
    write_all(&PreparedSet::Erase, erased);
    done.store(true, std::memory_order_release);
  });

  auto check = [&](std::size_t i) {
    std::size_t erased_before = erased.load(std::memory_order_acquire);
    bool present = target.Contains(kFresh + static_cast<Elem>(i));
    std::size_t erased_after = erased.load(std::memory_order_acquire);
    if (i < erased_before) {
      EXPECT_FALSE(present) << "acknowledged erase of key " << i << " lost";
    } else if (i > erased_after) {
      EXPECT_TRUE(present) << "acknowledged insert of key " << i << " lost";
    }
  };
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rrng(0x5eedULL + r);
      while (!done.load(std::memory_order_acquire)) {
        std::size_t n = inserted.load(std::memory_order_acquire);
        if (n == 0) continue;
        std::size_t e = erased.load(std::memory_order_acquire);
        check(n - 1);             // the newest acknowledged insert
        if (e > 0) check(e - 1);  // the newest acknowledged erase
        check(rrng.Below(n));     // anywhere behind the frontier
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();

  target.WaitForCompaction();
  EXPECT_EQ(target.size(), base.size());
  EXPECT_EQ(engine.Query({&target}).Materialize(), base);
}

// ---------------------------------------------------------------------------
// Same-key races: exactly one winner.
// ---------------------------------------------------------------------------

TEST(ReadWhileWriteTest, ConcurrentSameKeyInsertHasExactlyOneWinner) {
  const std::size_t values = 200 * StressIters();
  Engine engine("Planner:calibration=off");
  PreparedSet target = engine.PrepareMutable(
      {1, 2, 3}, {.background_compaction = false});
  constexpr std::size_t kThreads = 4;
  std::vector<std::size_t> wins(kThreads, 0);
  std::vector<std::size_t> erase_wins(kThreads, 0);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t v = 0; v < values; ++v) {
          Elem x = 1000 + static_cast<Elem>(v);
          if (target.Insert(x)) ++wins[t];
          // Erase of a value that may or may not exist yet: the sum of
          // successful erases per value can be 0..inserts, but never more
          // than the successful inserts (checked in aggregate below).
          Elem missing = 500000 + static_cast<Elem>(v);
          if (target.Erase(missing)) ++erase_wins[t];
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  // Every value was inserted by exactly one thread.
  EXPECT_EQ(wins[0] + wins[1] + wins[2] + wins[3], values);
  // The missing values were never present: no erase can have succeeded.
  EXPECT_EQ(erase_wins[0] + erase_wins[1] + erase_wins[2] + erase_wins[3],
            0u);
  EXPECT_EQ(target.size(), 3 + values);
}

// ---------------------------------------------------------------------------
// Lifetime edges: dropping handles mid-compaction, engine teardown.
// ---------------------------------------------------------------------------

TEST(ReadWhileWriteTest, DroppingHandlesDuringScheduledCompactionIsSafe) {
  const std::size_t rounds = 50 * StressIters();
  Engine engine("Planner:calibration=off");
  Xoshiro256 rng(0xd00dULL);
  for (std::size_t round = 0; round < rounds; ++round) {
    ElemList base = SampleSortedSet(500, 1 << 14, rng);
    PreparedSet s = engine.PrepareMutable(
        base, {.compact_fill = 0.001, .compact_min = 1});
    // Each mutation crosses the trigger, scheduling background rebuilds.
    for (Elem x = 0; x < 20; ++x) {
      s.Insert(static_cast<Elem>(1 << 14) + x);
    }
    // Drop the handle immediately: the scheduled task holds shared
    // ownership of the core and must complete (or no-op) without
    // touching freed memory.
  }
  // Compactions run one at a time in submission order, so once this set's
  // compaction, scheduled last, has finished, every task the dropped sets
  // queued before it has run too.
  PreparedSet last = engine.PrepareMutable(
      SampleSortedSet(500, 1 << 14, rng),
      {.compact_fill = 0.001, .compact_min = 1});
  last.Insert(static_cast<Elem>(1 << 14));
  last.WaitForCompaction();
  EXPECT_EQ(last.delta_size(), 0u);
}

TEST(ReadWhileWriteTest, QueryKeepsItsSnapshotAcrossCompaction) {
  Engine engine("Planner:calibration=off");
  PreparedSet s = engine.PrepareMutable({1, 2, 3, 4, 5},
                                        {.background_compaction = false});
  fsi::Query query = engine.Query({&s});
  EXPECT_EQ(query.Materialize(), (ElemList{1, 2, 3, 4, 5}));
  s.Erase(3);
  s.Compact();
  s.Insert(9);
  // Terminals re-snapshot per run: the same Query object sees the new
  // state, not the one from build time.
  EXPECT_EQ(query.Materialize(), (ElemList{1, 2, 4, 5, 9}));
}

}  // namespace
}  // namespace fsi
