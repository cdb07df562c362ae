// Tests for the serving layer (src/serve/): ShardMap routing and
// splitting, AdmissionController bounds, and ShardedEngine scatter-gather
// — differential equivalence against a plain Engine across sinks and
// shard counts, deadline edge cases (expired at admission, firing
// mid-gather), typed rejection under a full admission gate, and the
// per-shard snapshot round trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fsi.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace fsi {
namespace {

using std::chrono::microseconds;

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

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "fsi_sharded_" + name;
}

// ---------------------------------------------------------------------------
// ShardMap.
// ---------------------------------------------------------------------------

TEST(ShardMapTest, RejectsNonPowerOfTwoShardCounts) {
  EXPECT_THROW(ShardMap(0), std::invalid_argument);
  EXPECT_THROW(ShardMap(3), std::invalid_argument);
  EXPECT_THROW(ShardMap(12), std::invalid_argument);
  EXPECT_THROW(ShardMap(std::size_t{1} << 21), std::invalid_argument);
  EXPECT_NO_THROW(ShardMap(1));
  EXPECT_NO_THROW(ShardMap(8));
}

TEST(ShardMapTest, SingleShardOwnsEverything) {
  ShardMap map(1, 1000);
  EXPECT_EQ(map.shard_of(0), 0u);
  EXPECT_EQ(map.shard_of(999), 0u);
  EXPECT_EQ(map.shard_of(0xffffffffu), 0u);
}

TEST(ShardMapTest, RangesAreContiguousAndMonotone) {
  ShardMap map(4, 1024);  // 10 universe bits, 2 shard bits -> shift 8
  EXPECT_EQ(map.shift(), 8u);
  EXPECT_EQ(map.shard_begin(0), 0u);
  EXPECT_EQ(map.shard_begin(1), 256u);
  EXPECT_EQ(map.shard_of(255), 0u);
  EXPECT_EQ(map.shard_of(256), 1u);
  std::size_t previous = 0;
  for (Elem e = 0; e < 1024; ++e) {
    const std::size_t s = map.shard_of(e);
    EXPECT_GE(s, previous);  // monotone in the element value
    previous = s;
  }
  EXPECT_EQ(previous, 3u);  // every shard reachable
}

TEST(ShardMapTest, OutOfBoundElementsClampIntoLastShard) {
  ShardMap map(4, 1024);
  EXPECT_EQ(map.shard_of(1023), 3u);
  EXPECT_EQ(map.shard_of(1024), 3u);  // at the declared bound
  EXPECT_EQ(map.shard_of(0xffffffffu), 3u);
}

TEST(ShardMapTest, SplitPreservesOrderAndRoutesEverySlice) {
  Xoshiro256 rng(7);
  const ElemList sorted = SampleSortedSet(5000, 1 << 20, rng);
  ShardMap map(8, 1 << 20);
  std::vector<ElemList> slices = map.Split(sorted);
  ASSERT_EQ(slices.size(), 8u);
  ElemList rejoined;
  for (std::size_t s = 0; s < slices.size(); ++s) {
    for (Elem e : slices[s]) EXPECT_EQ(map.shard_of(e), s);
    rejoined.insert(rejoined.end(), slices[s].begin(), slices[s].end());
  }
  EXPECT_EQ(rejoined, sorted);  // concatenation in shard order == input
}

TEST(ShardMapTest, SplitHandlesEmptyAndSingleShardInput) {
  ShardMap map(8, 1 << 16);
  EXPECT_EQ(map.Split(ElemList{}).size(), 8u);
  // All elements in one shard: seven empty slices around it.
  std::vector<ElemList> slices = map.Split(ElemList{1, 2, 3});
  EXPECT_EQ(slices[0], (ElemList{1, 2, 3}));
  for (std::size_t s = 1; s < 8; ++s) EXPECT_TRUE(slices[s].empty());
}

// ---------------------------------------------------------------------------
// AdmissionController.
// ---------------------------------------------------------------------------

TEST(AdmissionTest, AdmitsUpToBoundThenRejects) {
  AdmissionController gate(2);
  EXPECT_TRUE(gate.TryAdmit());
  EXPECT_TRUE(gate.TryAdmit());
  EXPECT_FALSE(gate.TryAdmit());  // full
  EXPECT_EQ(gate.in_flight(), 2u);
  EXPECT_EQ(gate.admitted(), 2u);
  EXPECT_EQ(gate.rejected(), 1u);
  gate.Release();
  EXPECT_TRUE(gate.TryAdmit());  // slot freed
  EXPECT_EQ(gate.admitted(), 3u);
}

TEST(AdmissionTest, ZeroBoundAdmitsNothing) {
  AdmissionController gate(0);
  EXPECT_FALSE(gate.TryAdmit());
  EXPECT_EQ(gate.rejected(), 1u);
}

TEST(AdmissionTest, TicketReleasesOnDestructionAndMove) {
  AdmissionController gate(1);
  {
    AdmissionTicket ticket(gate.TryAdmit() ? &gate : nullptr);
    ASSERT_TRUE(ticket.admitted());
    EXPECT_EQ(gate.in_flight(), 1u);
    AdmissionTicket moved = std::move(ticket);
    EXPECT_TRUE(moved.admitted());
    EXPECT_FALSE(ticket.admitted());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(gate.in_flight(), 1u);  // move does not double-release
  }
  EXPECT_EQ(gate.in_flight(), 0u);  // destruction released the slot
}

// ---------------------------------------------------------------------------
// Differential: ShardedEngine vs plain Engine, every sink.
// ---------------------------------------------------------------------------

class ShardedDifferentialTest : public testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedDifferentialTest,
                         testing::Values(1, 2, 4, 8),
                         [](const testing::TestParamInfo<std::size_t>& info) {
                           return "shards" + std::to_string(info.param);
                         });

TEST_P(ShardedDifferentialTest, MatchesPlainEngineAcrossSinks) {
  const std::size_t num_shards = GetParam();
  constexpr std::uint64_t kUniverse = 1 << 18;
  Xoshiro256 rng(42);
  std::vector<ElemList> lists = GenerateIntersectingSets(
      {20000, 12000, 8000}, 900, kUniverse, rng);
  const ElemList truth = GroundTruth(lists);
  ASSERT_EQ(truth.size(), 900u);

  Engine plain("Planner");
  std::vector<PreparedSet> plain_sets;
  for (const ElemList& list : lists) plain_sets.push_back(plain.Prepare(list));
  const ElemList expected =
      plain.Query({&plain_sets[0], &plain_sets[1], &plain_sets[2]})
          .Materialize();
  EXPECT_EQ(expected, truth);

  ShardedEngine engine({.num_shards = num_shards,
                        .universe_bound = kUniverse,
                        .num_threads = 4});
  std::vector<ShardedSet> sets;
  for (const ElemList& list : lists) sets.push_back(engine.Prepare(list));
  const std::vector<const ShardedSet*> query = {&sets[0], &sets[1], &sets[2]};

  // Ordered materialize: bitwise-identical to the unsharded engine.
  ServeResult ordered = engine.Serve(query);
  EXPECT_EQ(ordered.status, ServeStatus::kOk);
  EXPECT_EQ(ordered.elems, expected);
  EXPECT_EQ(ordered.result_size, expected.size());
  EXPECT_EQ(ordered.shards_answered, num_shards);
  EXPECT_EQ(ordered.shards_missed, 0u);
  EXPECT_GT(ordered.elements_scanned, 0u);

  // Unordered: same multiset of elements.
  ServeResult unordered = engine.Serve(query, {.ordered = false});
  ElemList sorted_result = unordered.elems;
  std::sort(sorted_result.begin(), sorted_result.end());
  EXPECT_EQ(sorted_result, expected);

  // Count-only: exact count, no elements materialized.
  ServeResult counted = engine.Serve(query, {.count_only = true});
  EXPECT_EQ(counted.result_size, expected.size());
  EXPECT_TRUE(counted.elems.empty());

  // Ordered limit: the first N of the full ordered result.
  ServeResult limited = engine.Serve(query, {.limit = 100});
  ASSERT_EQ(limited.elems.size(), 100u);
  EXPECT_TRUE(std::equal(limited.elems.begin(), limited.elems.end(),
                         expected.begin()));

  // Unordered limit: exactly N elements, all from the true result.
  ServeResult unordered_limited =
      engine.Serve(query, {.ordered = false, .limit = 100});
  EXPECT_EQ(unordered_limited.elems.size(), 100u);
  const std::set<Elem> truth_set(expected.begin(), expected.end());
  for (Elem e : unordered_limited.elems) EXPECT_TRUE(truth_set.count(e));

  // Count-only limit clamps the count.
  ServeResult count_limited =
      engine.Serve(query, {.limit = 100, .count_only = true});
  EXPECT_EQ(count_limited.result_size, 100u);
}

TEST_P(ShardedDifferentialTest, DisjointSetsIntersectToEmpty) {
  ShardedEngine engine(
      {.num_shards = GetParam(), .universe_bound = 1 << 16, .num_threads = 2});
  ShardedSet a = engine.Prepare({1, 5, 9, 40000});
  ShardedSet b = engine.Prepare({2, 6, 10, 50000});
  ServeResult result = engine.Serve({&a, &b});
  EXPECT_EQ(result.status, ServeStatus::kOk);
  EXPECT_TRUE(result.elems.empty());
  EXPECT_EQ(result.result_size, 0u);
}

TEST(ShardedEngineTest, SingleShardIsBitwiseIdenticalToPlainEngine) {
  // shard-count = 1 routes everything through one per-shard engine built
  // with the same spec and seed as the reference — every sink must agree
  // bitwise, ordered or not.
  constexpr std::uint64_t kUniverse = 1 << 17;
  Xoshiro256 rng(3);
  std::vector<ElemList> lists =
      GenerateIntersectingSets({9000, 6000}, 500, kUniverse, rng);

  Engine plain("Planner", {.seed = kDefaultAlgorithmSeed});
  PreparedSet pa = plain.Prepare(lists[0]);
  PreparedSet pb = plain.Prepare(lists[1]);

  ShardedEngine engine({.num_shards = 1, .universe_bound = kUniverse});
  ShardedSet sa = engine.Prepare(lists[0]);
  ShardedSet sb = engine.Prepare(lists[1]);

  EXPECT_EQ(engine.Serve({&sa, &sb}).elems,
            plain.Query({&pa, &pb}).Materialize());
  EXPECT_EQ(engine.Serve({&sa, &sb}, {.ordered = false}).elems,
            plain.Query({&pa, &pb}).Unordered().Materialize());
  EXPECT_EQ(engine.Serve({&sa, &sb}, {.count_only = true}).result_size,
            plain.Query({&pa, &pb}).Count());
  EXPECT_EQ(engine.Serve({&sa, &sb}, {.limit = 37}).elems,
            plain.Query({&pa, &pb}).Limit(37).Materialize());
}

TEST(ShardedEngineTest, EmptyAndSingletonInputs) {
  ShardedEngine engine({.num_shards = 4, .universe_bound = 1 << 16});
  ShardedSet empty = engine.Prepare(std::span<const Elem>{});
  ShardedSet some = engine.Prepare({3, 7, 11});
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.num_shards(), 4u);

  ServeResult with_empty = engine.Serve({&empty, &some});
  EXPECT_EQ(with_empty.status, ServeStatus::kOk);
  EXPECT_TRUE(with_empty.elems.empty());

  ServeResult single = engine.Serve({&some});
  EXPECT_EQ(single.elems, (ElemList{3, 7, 11}));

  ServeResult none = engine.Serve(std::span<const ShardedSet* const>{});
  EXPECT_EQ(none.status, ServeStatus::kOk);
  EXPECT_TRUE(none.elems.empty());
}

TEST(ShardedEngineTest, MisuseThrowsOnCallingThread) {
  ShardedEngine e1({.num_shards = 2, .universe_bound = 1 << 10});
  ShardedEngine e2({.num_shards = 2, .universe_bound = 1 << 10});
  ShardedSet a = e1.Prepare({1, 2, 3});
  ShardedSet foreign = e2.Prepare({2, 3, 4});
  ShardedSet empty_handle;
  EXPECT_THROW(e1.Serve({&a, &foreign}), std::invalid_argument);
  EXPECT_THROW(e1.Serve({&a, &empty_handle}), std::invalid_argument);
  EXPECT_THROW(e1.Serve({&a, nullptr}), std::invalid_argument);
  ShardedEngine validating(
      {.num_shards = 2, .validation = ValidationPolicy::kFull});
  EXPECT_THROW(validating.Prepare({3, 2, 1}), std::invalid_argument);
  EXPECT_THROW(validating.Prepare({1, 1, 2}), std::invalid_argument);
}

TEST(ShardedEngineTest, ShardedExprMisuseThrowsBeforeAdmission) {
  ShardedEngine e1({.num_shards = 2, .universe_bound = 1 << 10});
  ShardedEngine e2({.num_shards = 4, .universe_bound = 1 << 10});
  const ShardedExpr x = ShardedExpr::Set(e1.Prepare({1, 2, 3}));
  const ShardedSet foreign = e2.Prepare({2, 3, 4});
  EXPECT_THROW(ShardedExpr::And({}), std::invalid_argument);
  EXPECT_THROW(ShardedExpr::Or({}), std::invalid_argument);
  EXPECT_THROW(ShardedExpr::AtLeast(0, {x}), std::invalid_argument);
  EXPECT_THROW(ShardedExpr::AtLeast(0, {ShardedExpr::None()}),
               std::invalid_argument);
  EXPECT_THROW(ShardedExpr::Set(ShardedSet{}), std::invalid_argument);
  EXPECT_THROW(ShardedExpr::Diff(x, ShardedExpr{}), std::invalid_argument);
  EXPECT_THROW(ShardedExpr::Diff(ShardedExpr{}, x), std::invalid_argument);
  EXPECT_THROW(ShardedExpr::And({x, ShardedExpr{}}), std::invalid_argument);
  EXPECT_THROW(e1.Serve(ShardedExpr{}), std::invalid_argument);
  // A foreign leaf throws from Serve when alone and from the builder when
  // mixed with an own leaf: either way on this thread, before admission.
  EXPECT_THROW(e1.Serve(ShardedExpr::Set(foreign)), std::invalid_argument);
  EXPECT_THROW(e1.Serve(ShardedExpr::And({x, ShardedExpr::Set(foreign)})),
               std::invalid_argument);
  EXPECT_THROW(e1.Serve(ShardedExpr::Or({ShardedExpr::Set(foreign), x})),
               std::invalid_argument);
  EXPECT_EQ(e1.counters().admitted, 0u);
  EXPECT_EQ(e2.counters().admitted, 0u);
}

TEST(ShardedEngineTest, FlatServeSumsEveryAnsweringShardsStats) {
  // Three of the four shards hold an empty slice of one operand; they
  // still answer, and their scans count towards the gathered stats.
  ShardedEngine engine({.num_shards = 4, .universe_bound = 1 << 16});
  ShardedSet a = engine.Prepare({1, 2, 3, 20000, 40000});
  ShardedSet b = engine.Prepare({2, 3, 60000});
  Engine plain;
  PreparedSet pa = plain.Prepare({1, 2, 3, 20000, 40000});
  PreparedSet pb = plain.Prepare({2, 3, 60000});
  const QueryStats want = plain.Query({&pa, &pb}).Execute();

  ServeResult result = engine.Serve({&a, &b});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.shards_answered, 4u);
  EXPECT_EQ(result.elems, (ElemList{2, 3}));
  EXPECT_EQ(result.elements_scanned, want.elements_scanned);
}

// ---------------------------------------------------------------------------
// Deadlines.
// ---------------------------------------------------------------------------

TEST(ShardedDeadlineTest, ZeroDeadlineExpiresAtAdmission) {
  ShardedEngine engine({.num_shards = 4, .universe_bound = 1 << 14});
  ShardedSet a = engine.Prepare({1, 2, 3, 5000, 9000});
  ShardedSet b = engine.Prepare({2, 3, 5000, 8000});

  ServeResult result = engine.Serve({&a, &b}, {.deadline = microseconds{0}});
  EXPECT_EQ(result.status, ServeStatus::kExpired);
  EXPECT_TRUE(result.elems.empty());
  EXPECT_EQ(result.shards_answered, 0u);
  EXPECT_EQ(result.shards_missed, 4u);

  ServeResult negative =
      engine.Serve({&a, &b}, {.deadline = microseconds{-50}});
  EXPECT_EQ(negative.status, ServeStatus::kExpired);

  ServeCounters counters = engine.counters();
  EXPECT_EQ(counters.deadline_misses, 2u);
  EXPECT_EQ(counters.served, 0u);  // nothing was scattered
  EXPECT_EQ(counters.in_flight, 0u);
}

TEST(ShardedDeadlineTest, EngineDefaultDeadlineApplies) {
  // A tight engine-wide default deadline over chunky single-threaded work
  // must cut queries short even when ServeOptions carries no deadline; an
  // explicit generous per-query deadline overrides it.  (A default <= 0
  // means *no* default — that path is plain kOk, covered elsewhere.)
  constexpr std::uint64_t kUniverse = 1 << 18;
  Xoshiro256 rng(19);
  std::vector<ElemList> lists =
      GenerateIntersectingSets({60000, 40000}, 3000, kUniverse, rng);
  ShardedEngine engine({.num_shards = 8,
                        .universe_bound = kUniverse,
                        .num_threads = 1,
                        .default_deadline = microseconds{1}});
  ShardedSet a = engine.Prepare(lists[0]);
  ShardedSet b = engine.Prepare(lists[1]);
  // No per-query deadline: the 1µs default applies and fires mid-gather.
  EXPECT_EQ(engine.Serve({&a, &b}).status, ServeStatus::kPartial);
  // An explicit generous per-query deadline overrides the default.
  ServeResult generous =
      engine.Serve({&a, &b}, {.deadline = microseconds{30'000'000}});
  EXPECT_EQ(generous.status, ServeStatus::kOk);
  EXPECT_EQ(generous.elems, GroundTruth(lists));
}

TEST(ShardedDeadlineTest, DeadlineFiringMidGatherYieldsPartialResult) {
  // One worker thread, eight shards of real work, a 1µs budget: the
  // deadline is guaranteed to fire while most shards are still queued.
  // Shards that answered in time must still be exact.
  constexpr std::uint64_t kUniverse = 1 << 18;
  Xoshiro256 rng(11);
  std::vector<ElemList> lists =
      GenerateIntersectingSets({60000, 40000}, 3000, kUniverse, rng);
  const ElemList truth = GroundTruth(lists);

  ShardedEngine engine(
      {.num_shards = 8, .universe_bound = kUniverse, .num_threads = 1});
  ShardedSet a = engine.Prepare(lists[0]);
  ShardedSet b = engine.Prepare(lists[1]);

  ServeResult result =
      engine.Serve({&a, &b}, {.deadline = microseconds{1}});
  EXPECT_EQ(result.status, ServeStatus::kPartial);
  EXPECT_GT(result.shards_missed, 0u);
  EXPECT_EQ(result.shards_answered + result.shards_missed, 8u);
  EXPECT_TRUE(result.partial());
  // Whatever arrived is a subset of the truth, in order.
  EXPECT_TRUE(std::includes(truth.begin(), truth.end(), result.elems.begin(),
                            result.elems.end()));
  EXPECT_GE(engine.counters().deadline_misses, 1u);
  EXPECT_EQ(engine.counters().served, 1u);  // partial still counts as served

  // The same query with a generous budget completes exactly.
  ServeResult full =
      engine.Serve({&a, &b}, {.deadline = microseconds{30'000'000}});
  EXPECT_EQ(full.status, ServeStatus::kOk);
  EXPECT_EQ(full.elems, truth);
}

TEST(ShardedDeadlineTest, AbandonedShardsDoNotCorruptLaterQueries) {
  // After a partial gather returns, abandoned tasks may still be queued;
  // they must self-cancel (finalized flag) and later queries on the same
  // engine must see clean, complete results.
  constexpr std::uint64_t kUniverse = 1 << 18;
  Xoshiro256 rng(13);
  std::vector<ElemList> lists =
      GenerateIntersectingSets({50000, 30000}, 2000, kUniverse, rng);
  const ElemList truth = GroundTruth(lists);

  ShardedEngine engine(
      {.num_shards = 8, .universe_bound = kUniverse, .num_threads = 1});
  ShardedSet a = engine.Prepare(lists[0]);
  ShardedSet b = engine.Prepare(lists[1]);
  for (int round = 0; round < 10; ++round) {
    engine.Serve({&a, &b}, {.deadline = microseconds{1}});
    ServeResult clean = engine.Serve({&a, &b});
    EXPECT_EQ(clean.status, ServeStatus::kOk);
    EXPECT_EQ(clean.elems, truth);
  }
  EXPECT_EQ(engine.counters().in_flight, 0u);  // every ticket released
}

// ---------------------------------------------------------------------------
// Admission / rejection.
// ---------------------------------------------------------------------------

TEST(ShardedAdmissionTest, ZeroInFlightBoundRejectsEveryQuery) {
  ShardedEngine engine(
      {.num_shards = 2, .universe_bound = 1 << 10, .max_in_flight = 0});
  ShardedSet a = engine.Prepare({1, 2, 3});
  ServeResult result = engine.Serve({&a});
  EXPECT_EQ(result.status, ServeStatus::kRejected);
  EXPECT_TRUE(result.elems.empty());
  EXPECT_EQ(result.shards_missed, 2u);
  EXPECT_EQ(engine.counters().rejected, 1u);
  EXPECT_EQ(engine.counters().admitted, 0u);
  EXPECT_EQ(engine.counters().served, 0u);
}

TEST(ShardedAdmissionTest, FullGateRejectsConcurrentQuery) {
  // Gate of one: while a slow query (single worker, chunky shards) holds
  // the only slot, a concurrent Serve must be rejected, not queued.
  constexpr std::uint64_t kUniverse = 1 << 18;
  Xoshiro256 rng(17);
  std::vector<ElemList> lists =
      GenerateIntersectingSets({80000, 60000}, 4000, kUniverse, rng);

  ShardedEngine engine({.num_shards = 8,
                        .universe_bound = kUniverse,
                        .num_threads = 1,
                        .max_in_flight = 1});
  ShardedSet a = engine.Prepare(lists[0]);
  ShardedSet b = engine.Prepare(lists[1]);

  std::atomic<bool> background_done{false};
  std::thread background([&] {
    engine.Serve({&a, &b});
    background_done.store(true);
  });
  // Wait until the background query holds the admission slot.
  while (engine.counters().in_flight == 0 && !background_done.load()) {
    std::this_thread::yield();
  }
  if (!background_done.load()) {
    ServeResult result = engine.Serve({&a, &b});
    EXPECT_EQ(result.status, ServeStatus::kRejected);
    EXPECT_GE(engine.counters().rejected, 1u);
  }
  background.join();
  EXPECT_EQ(engine.counters().in_flight, 0u);
  // Once the slot frees, the same query is admitted and completes.
  EXPECT_EQ(engine.Serve({&a, &b}).status, ServeStatus::kOk);
}

// ---------------------------------------------------------------------------
// ServeBatch statistics.
// ---------------------------------------------------------------------------

TEST(ShardedBatchTest, FillsLatencyPercentilesAndCounters) {
  constexpr std::uint64_t kUniverse = 1 << 16;
  Xoshiro256 rng(23);
  std::vector<ElemList> lists =
      GenerateIntersectingSets({8000, 6000, 5000}, 300, kUniverse, rng);

  ShardedEngine engine(
      {.num_shards = 4, .universe_bound = kUniverse, .num_threads = 2});
  std::vector<ShardedSet> sets;
  for (const ElemList& list : lists) sets.push_back(engine.Prepare(list));

  std::vector<ShardedEngine::ShardedQuery> queries;
  for (int i = 0; i < 32; ++i) {
    queries.push_back({&sets[0], &sets[1]});
    queries.push_back({&sets[1], &sets[2]});
    queries.push_back({&sets[0], &sets[1], &sets[2]});
  }
  std::vector<ServeResult> results = engine.ServeBatch(queries);
  ASSERT_EQ(results.size(), queries.size());
  for (const ServeResult& result : results) {
    EXPECT_EQ(result.status, ServeStatus::kOk);
  }

  const BatchStats& stats = engine.batch_stats();
  EXPECT_EQ(stats.num_queries, queries.size());
  EXPECT_GT(stats.p50_micros, 0.0);
  EXPECT_LE(stats.p50_micros, stats.p95_micros);
  EXPECT_LE(stats.p95_micros, stats.p99_micros);
  EXPECT_LE(stats.p99_micros, stats.max_micros);
  EXPECT_GT(stats.queries_per_second, 0.0);
  EXPECT_EQ(stats.deadline_misses, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GT(stats.total_results, 0u);
}

TEST(ShardedBatchTest, CountsRejectionsAndMisses) {
  ShardedEngine rejecting(
      {.num_shards = 2, .universe_bound = 1 << 10, .max_in_flight = 0});
  ShardedSet a = rejecting.Prepare({1, 2, 3});
  std::vector<ShardedEngine::ShardedQuery> queries(5, {&a});
  std::vector<ServeResult> results = rejecting.ServeBatch(queries);
  for (const ServeResult& result : results) {
    EXPECT_EQ(result.status, ServeStatus::kRejected);
  }
  EXPECT_EQ(rejecting.batch_stats().rejected, 5u);
  EXPECT_EQ(rejecting.batch_stats().deadline_misses, 0u);

  ShardedEngine expiring({.num_shards = 2, .universe_bound = 1 << 10});
  ShardedSet b = expiring.Prepare({1, 2, 3});
  std::vector<ShardedEngine::ShardedQuery> expired_queries(3, {&b});
  expiring.ServeBatch(expired_queries, {.deadline = microseconds{0}});
  EXPECT_EQ(expiring.batch_stats().deadline_misses, 3u);
  EXPECT_EQ(expiring.batch_stats().rejected, 0u);
}

// ---------------------------------------------------------------------------
// Per-shard snapshots.
// ---------------------------------------------------------------------------

TEST(ShardedSnapshotTest, RoundTripPreservesResultsAndOrder) {
  constexpr std::uint64_t kUniverse = 1 << 17;
  Xoshiro256 rng(31);
  std::vector<ElemList> lists =
      GenerateIntersectingSets({15000, 10000, 7000}, 600, kUniverse, rng);
  const ElemList truth = GroundTruth(lists);

  const std::string path = TempPath("roundtrip.snap");
  ShardedEngine original(
      {.num_shards = 4, .universe_bound = kUniverse, .num_threads = 2});
  std::vector<ShardedSet> sets;
  for (const ElemList& list : lists) sets.push_back(original.Prepare(list));
  original.SaveSnapshot(path, {&sets[0], &sets[1], &sets[2]});

  LoadedShardedSnapshot loaded = ShardedEngine::LoadSnapshot(path);
  EXPECT_EQ(loaded.engine.num_shards(), 4u);
  EXPECT_EQ(loaded.engine.options().universe_bound, kUniverse);
  ASSERT_EQ(loaded.sets.size(), 3u);
  ASSERT_EQ(loaded.shard_infos.size(), 4u);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(loaded.sets[j].size(), lists[j].size());  // save order kept
  }

  ServeResult result =
      loaded.engine.Serve({&loaded.sets[0], &loaded.sets[1], &loaded.sets[2]});
  EXPECT_EQ(result.status, ServeStatus::kOk);
  EXPECT_EQ(result.elems, truth);

  // Loaded engine accepts new Prepare calls against the same shard map.
  ShardedSet fresh = loaded.engine.Prepare(lists[0]);
  EXPECT_EQ(loaded.engine.Serve({&fresh, &loaded.sets[1]}).elems,
            loaded.engine.Serve({&loaded.sets[0], &loaded.sets[1]}).elems);

  std::remove(path.c_str());
  for (int s = 0; s < 4; ++s) {
    std::remove((path + ".shard" + std::to_string(s)).c_str());
  }
}

TEST(ShardedSnapshotTest, TypedErrorsOnMissingOrMalformedManifest) {
  const std::string missing = TempPath("missing.snap");
  try {
    ShardedEngine::LoadSnapshot(missing);
    FAIL() << "expected SnapshotError";
  } catch (const storage::SnapshotError& error) {
    EXPECT_EQ(error.code(), storage::SnapshotErrorCode::kIo);
  }

  const std::string garbage = TempPath("garbage.snap");
  {
    std::ofstream out(garbage);
    out << "not a manifest at all\n";
  }
  try {
    ShardedEngine::LoadSnapshot(garbage);
    FAIL() << "expected SnapshotError";
  } catch (const storage::SnapshotError& error) {
    EXPECT_EQ(error.code(), storage::SnapshotErrorCode::kBadMagic);
  }
  std::remove(garbage.c_str());

  // Manifests over four valid shard images: each must be rejected as
  // corrupt before any image is loaded or anything is sized by it.
  const std::string path = TempPath("bad_manifest.snap");
  ShardedEngine engine({.num_shards = 4, .universe_bound = 1 << 16});
  ShardedSet a = engine.Prepare({1, 2, 3, 30000, 60000});
  engine.SaveSnapshot(path, {&a});
  const char* const manifests[] = {
      "num_shards 4\n",  // truncated: missing the rest
      "num_shards 0\nuniverse_bound 65536\nnum_sets 1\n",
      "num_shards 3\nuniverse_bound 65536\nnum_sets 1\n",
      "num_shards 1099511627776\nuniverse_bound 65536\nnum_sets 1\n",
      "num_shards 4\nuniverse_bound 4294967301\nnum_sets 1\n",
  };
  for (const char* body : manifests) {
    SCOPED_TRACE(body);
    {
      std::ofstream out(path, std::ios::trunc);
      out << "fsi-sharded-manifest 1\n" << body;
    }
    try {
      ShardedEngine::LoadSnapshot(path);
      FAIL() << "expected SnapshotError";
    } catch (const storage::SnapshotError& error) {
      EXPECT_EQ(error.code(), storage::SnapshotErrorCode::kCorrupt);
    }
  }
  std::remove(path.c_str());
  for (int s = 0; s < 4; ++s) {
    std::remove((path + ".shard" + std::to_string(s)).c_str());
  }
}

TEST(ShardedSnapshotTest, MissingShardImageSurfacesAsSnapshotError) {
  const std::string path = TempPath("lost_shard.snap");
  ShardedEngine engine({.num_shards = 2, .universe_bound = 1 << 10});
  ShardedSet a = engine.Prepare({1, 2, 3, 700});
  engine.SaveSnapshot(path, {&a});
  std::remove((path + ".shard1").c_str());
  EXPECT_THROW(ShardedEngine::LoadSnapshot(path), storage::SnapshotError);
  std::remove(path.c_str());
  std::remove((path + ".shard0").c_str());
}

}  // namespace
}  // namespace fsi
