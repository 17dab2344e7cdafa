// Tests for the proportion fair biclique models (PSSFBC / PBSFBC,
// Defs. 5-6), driven through the ++ engines with theta > 0
// (FairBCEMPro++ / BFairBCEMPro++).

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

TEST(ProSsfbc, RatioConstraintTightensResults) {
  // Complete 2x6, lower classes (4,2): delta=2 allows (4,2) but theta=0.4
  // requires the minority share >= 0.4 -> cap majority at 3.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 2; ++u) {
    for (VertexId v = 0; v < 6; ++v) edges.emplace_back(u, v);
  }
  BipartiteGraph g = MakeGraph(2, 6, edges, {0, 1}, {0, 0, 0, 0, 1, 1});
  FairBicliqueParams plain{1, 2, 2, 0.0};
  FairBicliqueParams pro{1, 2, 2, 0.4};

  auto plain_results = Collect(g, FairModel::kSsfbc, FairAlgo::kPlusPlus,
                               plain);
  ASSERT_EQ(plain_results.size(), 1u);  // the whole graph: (4,2) diff 2.
  EXPECT_EQ(plain_results[0].lower.size(), 6u);

  auto pro_results = Collect(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, pro);
  // t* = (min(4, 2+2, floor(2*1.5)=3), 2) = (3,2): C(4,3) = 4 subsets.
  EXPECT_EQ(pro_results.size(), 4u);
  for (const auto& b : pro_results) {
    EXPECT_EQ(b.lower.size(), 5u);
  }
  EXPECT_EQ(pro_results, Canonicalize(BruteForceSSFBC(g, pro)));
}

TEST(ProSsfbc, ThetaHalfForcesExactBalance) {
  // theta = 0.5 degenerates to delta = 0 (paper Exp-7 observation).
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 7, 0.5);
    FairBicliqueParams pro{1, 1, 3, 0.5};
    FairBicliqueParams balanced{1, 1, 0, 0.0};
    EXPECT_EQ(Collect(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, pro),
              Collect(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, balanced))
        << "seed=" << seed;
  }
}

TEST(ProSsfbc, MatchesOracleAcrossThetas) {
  for (std::uint64_t seed = 20; seed < 40; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 7, 0.5);
    for (double theta : {0.3, 0.4, 0.45}) {
      FairBicliqueParams params{1, 1, 2, theta};
      auto oracle = Canonicalize(BruteForceSSFBC(g, params));
      EXPECT_EQ(Collect(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params),
                oracle)
          << "seed=" << seed << " theta=" << theta;
      EXPECT_EQ(Collect(g, FairModel::kSsfbc, FairAlgo::kBcem, params), oracle)
          << "seed=" << seed << " theta=" << theta;
    }
  }
}

TEST(ProBsfbc, MatchesOracleAcrossThetas) {
  for (std::uint64_t seed = 60; seed < 75; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 6, 0.55);
    for (double theta : {0.3, 0.4}) {
      FairBicliqueParams params{1, 1, 2, theta};
      auto oracle = Canonicalize(BruteForceBSFBC(g, params));
      EXPECT_EQ(Collect(g, FairModel::kBsfbc, FairAlgo::kPlusPlus, params),
                oracle)
          << "seed=" << seed << " theta=" << theta;
      EXPECT_EQ(Collect(g, FairModel::kBsfbc, FairAlgo::kBcem, params), oracle)
          << "seed=" << seed << " theta=" << theta;
    }
  }
}

TEST(ProSsfbc, EmittedResultsRespectRatio) {
  for (std::uint64_t seed = 80; seed < 90; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 9, 0.45);
    FairBicliqueParams params{1, 1, 2, 0.4};
    CollectSink sink;
    RunEnumeration(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params, {},
                   sink.AsSink());
    for (const Biclique& b : sink.results()) {
      SizeVector sizes(g.NumAttrs(Side::kLower), 0);
      for (VertexId v : b.lower) ++sizes[g.Attr(Side::kLower, v)];
      for (auto s : sizes) {
        EXPECT_GE(static_cast<double>(s) + 1e-9,
                  0.4 * static_cast<double>(b.lower.size()))
            << b.DebugString();
      }
    }
  }
}

}  // namespace
}  // namespace fairbc
