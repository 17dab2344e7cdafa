#include <gtest/gtest.h>

#include "core/bruteforce.h"
#include "core/pipeline.h"
#include "test_util.h"

namespace fairbc {
namespace {

using ::fairbc::testing::Canonicalize;
using ::fairbc::testing::Collect;
using ::fairbc::testing::MakeGraph;
using ::fairbc::testing::RandomSmallGraph;

TEST(BFairBcem, CompleteBalancedBlock) {
  // Complete 4x4 with balanced attributes on both sides.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = 0; v < 4; ++v) edges.emplace_back(u, v);
  }
  BipartiteGraph g = MakeGraph(4, 4, edges, {0, 0, 1, 1}, {0, 1, 0, 1});
  FairBicliqueParams params{2, 2, 0, 0.0};
  auto results = Collect(g, FairModel::kBsfbc, FairAlgo::kBcem, params);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].upper, (std::vector<VertexId>{0, 1, 2, 3}));
  EXPECT_EQ(results[0].lower, (std::vector<VertexId>{0, 1, 2, 3}));
  EXPECT_EQ(results, Canonicalize(BruteForceBSFBC(g, params)));
}

TEST(BFairBcem, UpperUnfairnessForcesSubsets) {
  // Complete 3x4: upper classes (2,1); alpha=1, delta=0 forces picking
  // one of the two class-0 uppers -> two bi-side fair bicliques.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 3; ++u) {
    for (VertexId v = 0; v < 4; ++v) edges.emplace_back(u, v);
  }
  BipartiteGraph g = MakeGraph(3, 4, edges, {0, 0, 1}, {0, 1, 0, 1});
  FairBicliqueParams params{1, 1, 0, 0.0};
  auto results = Collect(g, FairModel::kBsfbc, FairAlgo::kBcem, params);
  EXPECT_EQ(results.size(), 2u);
  EXPECT_EQ(results, Canonicalize(BruteForceBSFBC(g, params)));
  for (const auto& b : results) {
    EXPECT_EQ(b.upper.size(), 2u);
    EXPECT_EQ(b.lower.size(), 4u);
  }
}

TEST(BFairBcem, BsfbcContainedInSomeSsfbc) {
  // Observation 6: every BSFBC is contained in a single-side fair
  // biclique.
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 7, 0.5);
    FairBicliqueParams params{1, 1, 1, 0.0};
    auto bs = Collect(g, FairModel::kBsfbc, FairAlgo::kPlusPlus, params);
    auto ss = Collect(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params);
    for (const auto& b : bs) {
      bool contained = false;
      for (const auto& s : ss) {
        bool upper_in = std::includes(s.upper.begin(), s.upper.end(),
                                      b.upper.begin(), b.upper.end());
        bool lower_in = std::includes(s.lower.begin(), s.lower.end(),
                                      b.lower.begin(), b.lower.end());
        if (upper_in && lower_in) {
          contained = true;
          break;
        }
      }
      EXPECT_TRUE(contained) << "seed=" << seed << " " << b.DebugString();
    }
  }
}

TEST(BFairBcem, EmittedBsfbcSatisfyDefinition) {
  for (std::uint64_t seed = 40; seed < 50; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 8, 0.5);
    FairBicliqueParams params{1, 1, 1, 0.0};
    CollectSink sink;
    RunEnumeration(g, FairModel::kBsfbc, FairAlgo::kPlusPlus, params, {},
                   sink.AsSink());
    for (const Biclique& b : sink.results()) {
      ASSERT_FALSE(b.upper.empty());
      ASSERT_FALSE(b.lower.empty());
      for (VertexId u : b.upper) {
        for (VertexId v : b.lower) {
          EXPECT_TRUE(g.HasEdge(u, v)) << b.DebugString();
        }
      }
      SizeVector us(g.NumAttrs(Side::kUpper), 0);
      for (VertexId u : b.upper) ++us[g.Attr(Side::kUpper, u)];
      SizeVector ls(g.NumAttrs(Side::kLower), 0);
      for (VertexId v : b.lower) ++ls[g.Attr(Side::kLower, v)];
      EXPECT_TRUE(IsFeasibleVector(us, params.UpperSpec())) << b.DebugString();
      EXPECT_TRUE(IsFeasibleVector(ls, params.LowerSpec())) << b.DebugString();
    }
  }
}

TEST(BFairBcem, NoBsfbcWhenUpperClassMissing) {
  BipartiteGraph g = MakeGraph(2, 2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}},
                               {0, 0}, {0, 1});
  FairBicliqueParams params{1, 1, 1, 0.0};
  EXPECT_TRUE(Collect(g, FairModel::kBsfbc, FairAlgo::kBcem, params).empty());
}

TEST(BFairBcem, EmptyGraph) {
  BipartiteGraph g;
  FairBicliqueParams params{1, 1, 1, 0.0};
  CountSink sink;
  EnumStats stats = RunEnumeration(g, FairModel::kBsfbc, FairAlgo::kBcem,
                                   params, {}, sink.AsSink());
  EXPECT_EQ(stats.num_results, 0u);
}

}  // namespace
}  // namespace fairbc
