// Build-health smoke test: every algorithm descriptor the registry holds
// must instantiate and round-trip a tiny, fully known intersection,
// through both the raw API and the Engine.  This is deliberately minimal — it is the first
// test to run after a fresh clone and catches registration or link
// regressions before the heavyweight property sweeps do.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "fsi.h"

namespace fsi {
namespace {

std::vector<std::string> AllRegisteredSpecs() {
  std::vector<std::string> specs;
  // Every descriptor, including hidden aliases such as "RanGroupScan2"...
  for (auto name : AlgorithmRegistry::Global().Names(/*include_hidden=*/true)) {
    specs.emplace_back(name);
  }
  // ...plus at least one option-string spelling per option style.
  specs.emplace_back("RanGroupScan:m=2,w=4");
  specs.emplace_back("Hybrid:skew_threshold=32");
  specs.emplace_back("IntGroup:s=16");
  return specs;
}

TEST(RegistrySmokeTest, EveryDescriptorInstantiatesAndRoundTrips) {
  const std::vector<ElemList> lists = {{1, 3, 5, 7, 9, 11, 100, 200},
                                       {2, 3, 4, 7, 8, 11, 200, 300}};
  const ElemList expected = {3, 7, 11, 200};

  for (const std::string& spec : AllRegisteredSpecs()) {
    SCOPED_TRACE(spec);
    // Raw API.
    auto alg = AlgorithmRegistry::Global().Create(spec);
    ASSERT_NE(alg, nullptr);
    EXPECT_FALSE(alg->name().empty());
    EXPECT_EQ(alg->IntersectLists(lists), expected);
    // Engine API over the same spec.
    Engine engine{spec};
    PreparedSet a = engine.Prepare(lists[0]);
    PreparedSet b = engine.Prepare(lists[1]);
    EXPECT_EQ(engine.Query({&a, &b}).Materialize(), expected);
  }
}

TEST(RegistrySmokeTest, EmptyIntersectionRoundTrips) {
  const std::vector<ElemList> lists = {{1, 4, 9}, {2, 5, 10}};

  for (const std::string& spec : AllRegisteredSpecs()) {
    SCOPED_TRACE(spec);
    Engine engine{spec};
    EXPECT_TRUE(engine.IntersectLists(lists).empty());
  }
}

}  // namespace
}  // namespace fsi
