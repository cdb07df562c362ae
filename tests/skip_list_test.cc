#include "container/skip_list.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "workload/synthetic.h"

namespace fsi {
namespace {

TEST(SkipListTest, EmptyList) {
  SkipList<std::uint32_t> list;
  EXPECT_TRUE(list.empty());
  EXPECT_FALSE(list.Contains(5));
  EXPECT_EQ(list.SeekGreaterEqual(0), 0u);
}

TEST(SkipListTest, SingleElement) {
  std::vector<std::uint32_t> keys = {42};
  SkipList<std::uint32_t> list(keys);
  EXPECT_TRUE(list.Contains(42));
  EXPECT_FALSE(list.Contains(41));
  EXPECT_EQ(list.SeekGreaterEqual(42), 0u);
  EXPECT_EQ(list.SeekGreaterEqual(43), 1u);  // == size(): not found
  EXPECT_EQ(list.SeekGreaterEqual(0), 0u);
}

TEST(SkipListTest, SeekSemanticsExhaustive) {
  std::vector<std::uint32_t> keys = {2, 4, 8, 16, 32, 64};
  SkipList<std::uint32_t> list(keys);
  for (std::uint32_t x = 0; x <= 70; ++x) {
    std::uint32_t expected = 0;
    while (expected < keys.size() && keys[expected] < x) ++expected;
    EXPECT_EQ(list.SeekGreaterEqual(x), expected) << "x=" << x;
  }
}

TEST(SkipListTest, ContainsLargeRandom) {
  Xoshiro256 rng(61);
  ElemList keys = SampleSortedSet(20000, 1 << 24, rng);
  SkipList<Elem> list(keys);
  for (std::size_t i = 0; i < keys.size(); i += 37) {
    ASSERT_TRUE(list.Contains(keys[i]));
  }
  // Values between neighbours must be absent.
  for (std::size_t i = 1; i < keys.size(); i += 53) {
    if (keys[i] > keys[i - 1] + 1) {
      ASSERT_FALSE(list.Contains(keys[i] - 1));
    }
  }
}

TEST(SkipListTest, HintShortCircuit) {
  std::vector<std::uint32_t> keys = {10, 20, 30, 40, 50};
  SkipList<std::uint32_t> list(keys);
  // If the hinted node already satisfies the query, it is returned as-is.
  EXPECT_EQ(list.SeekGreaterEqual(15, 1), 1u);  // node 1 = 20 >= 15
  EXPECT_EQ(list.SeekGreaterEqual(20, 1), 1u);
  // Otherwise a full search runs.
  EXPECT_EQ(list.SeekGreaterEqual(45, 1), 4u);
}

TEST(SkipListTest, KeysAccessibleInOrder) {
  Xoshiro256 rng(67);
  ElemList keys = SampleSortedSet(5000, 1 << 20, rng);
  SkipList<Elem> list(keys);
  ASSERT_EQ(list.size(), keys.size());
  for (std::uint32_t i = 0; i < list.size(); ++i) {
    EXPECT_EQ(list.key(i), keys[i]);
  }
}

TEST(SkipListTest, SpaceIsLinear) {
  Xoshiro256 rng(71);
  ElemList keys = SampleSortedSet(10000, 1 << 24, rng);
  SkipList<Elem> list(keys);
  // keys (0.5 w/elem) + ~2 tower pointers/elem (0.5 w each) + offsets.
  EXPECT_LT(list.SizeInWords(), keys.size() * 3);
}

}  // namespace
}  // namespace fsi
