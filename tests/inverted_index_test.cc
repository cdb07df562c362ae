#include "index/inverted_index.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/engine.h"

namespace fsi {
namespace {

std::vector<std::string> Terms(std::initializer_list<const char*> ts) {
  return {ts.begin(), ts.end()};
}

class InvertedIndexTest : public ::testing::Test {
 protected:
  InvertedIndexTest() : index_(Engine("Hybrid")) {
    index_.AddDocument(1, Terms({"fast", "set", "intersection"}));
    index_.AddDocument(2, Terms({"fast", "hash", "join"}));
    index_.AddDocument(5, Terms({"set", "intersection", "memory"}));
    index_.AddDocument(9, Terms({"fast", "intersection", "memory"}));
    index_.Finalize();
  }

  InvertedIndex index_;
};

TEST_F(InvertedIndexTest, SingleTermQuery) {
  EXPECT_EQ(index_.Query(Terms({"fast"})), (ElemList{1, 2, 9}));
  EXPECT_EQ(index_.Query(Terms({"memory"})), (ElemList{5, 9}));
}

TEST_F(InvertedIndexTest, ConjunctiveQuery) {
  EXPECT_EQ(index_.Query(Terms({"fast", "intersection"})), (ElemList{1, 9}));
  EXPECT_EQ(index_.Query(Terms({"set", "intersection", "memory"})),
            (ElemList{5}));
}

TEST_F(InvertedIndexTest, CountMatchingAgreesWithQuery) {
  EXPECT_EQ(index_.CountMatching(Terms({"fast", "intersection"})), 2u);
  EXPECT_EQ(index_.CountMatching(Terms({"nosuchterm", "fast"})), 0u);
  EXPECT_EQ(index_.CountMatching({}), 0u);
  QueryStats stats;
  index_.Query(Terms({"fast", "intersection"}), &stats);
  EXPECT_EQ(stats.result_size, 2u);
  EXPECT_GT(stats.elements_scanned, 0u);
  EXPECT_EQ(stats.num_sets, 2u);
}

TEST_F(InvertedIndexTest, UnknownTermYieldsEmpty) {
  EXPECT_TRUE(index_.Query(Terms({"fast", "nosuchterm"})).empty());
  EXPECT_TRUE(index_.Query(Terms({"nosuchterm"})).empty());
}

TEST_F(InvertedIndexTest, EmptyQuery) {
  EXPECT_TRUE(index_.Query({}).empty());
}

TEST_F(InvertedIndexTest, DocumentFrequency) {
  EXPECT_EQ(index_.DocumentFrequency("fast"), 3u);
  EXPECT_EQ(index_.DocumentFrequency("hash"), 1u);
  EXPECT_EQ(index_.DocumentFrequency("nosuchterm"), 0u);
}

TEST_F(InvertedIndexTest, Counts) {
  EXPECT_EQ(index_.num_documents(), 4u);
  EXPECT_EQ(index_.num_terms(), 6u);
  EXPECT_GT(index_.SizeInWords(), 0u);
}

TEST(InvertedIndexValidationTest, RejectsNonIncreasingDocIds) {
  InvertedIndex index{Engine("Merge")};
  index.AddDocument(5, Terms({"a"}));
  EXPECT_THROW(index.AddDocument(5, Terms({"b"})), std::invalid_argument);
  EXPECT_THROW(index.AddDocument(3, Terms({"b"})), std::invalid_argument);
}

TEST(InvertedIndexValidationTest, LifecycleErrors) {
  InvertedIndex index{Engine("Merge")};
  index.AddDocument(1, Terms({"a"}));
  EXPECT_THROW(index.Query(Terms({"a"})), std::logic_error);  // not finalized
  index.Finalize();
  EXPECT_THROW(index.Finalize(), std::logic_error);
  EXPECT_THROW(index.AddDocument(2, Terms({"b"})), std::logic_error);
}

TEST(InvertedIndexValidationTest, DuplicateTermInDocumentCollapses) {
  InvertedIndex index{Engine("Merge")};
  index.AddDocument(1, Terms({"a", "a", "a"}));
  index.AddDocument(4, Terms({"a", "b"}));
  // Before Finalize the counts come from the raw posting lists, after it
  // from the prepared structures (the raw lists are released).
  EXPECT_EQ(index.DocumentFrequency("a"), 2u);
  EXPECT_EQ(index.DocumentFrequency("b"), 1u);
  index.Finalize();
  EXPECT_EQ(index.DocumentFrequency("a"), 2u);
  EXPECT_EQ(index.DocumentFrequency("b"), 1u);
  EXPECT_EQ(index.Query(Terms({"a", "b"})), (ElemList{4}));

  InvertedIndex updatable{Engine("Merge")};
  updatable.AddDocument(1, Terms({"a", "a"}));
  EXPECT_EQ(updatable.DocumentFrequency("a"), 1u);
  updatable.FinalizeUpdatable();
  EXPECT_EQ(updatable.DocumentFrequency("a"), 1u);
  updatable.InsertDocument(3, Terms({"a", "c"}));
  EXPECT_EQ(updatable.DocumentFrequency("a"), 2u);
  EXPECT_EQ(updatable.DocumentFrequency("c"), 1u);
}

TEST(InvertedIndexAlgorithmsTest, SameResultsUnderEveryAlgorithm) {
  // The index must behave identically regardless of the plugged algorithm.
  std::vector<ElemList> expected;
  std::vector<std::string> algorithms = {"Merge", "RanGroupScan", "HashBin",
                                         "Hybrid", "SvS",
                                         "RanGroupScan_Lowbits"};
  for (const auto& name : algorithms) {
    InvertedIndex index{Engine(name)};
    for (Elem d = 0; d < 500; ++d) {
      std::vector<std::string> terms;
      if (d % 2 == 0) terms.push_back("even");
      if (d % 3 == 0) terms.push_back("three");
      if (d % 5 == 0) terms.push_back("five");
      terms.push_back("all");
      index.AddDocument(d, terms);
    }
    index.Finalize();
    ElemList result = index.Query(Terms({"even", "three", "five"}));
    // Multiples of 30.
    ElemList want;
    for (Elem d = 0; d < 500; d += 30) want.push_back(d);
    EXPECT_EQ(result, want) << name;
  }
}

}  // namespace
}  // namespace fsi
