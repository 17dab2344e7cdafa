// Attribute-domain edge cases beyond the paper's two-classes-per-side
// focus: single-class sides (fairness degenerates to size thresholds)
// and three-class sides (including the general proportional search),
// all validated against the brute-force oracle.

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/bruteforce.h"
#include "core/pipeline.h"
#include "graph/builder.h"
#include "test_util.h"

namespace fairbc {
namespace {

using ::fairbc::testing::Canonicalize;
using ::fairbc::testing::Collect;
using ::fairbc::testing::RandomSmallGraph;

TEST(SingleAttrClass, SsfbcMatchesOracle) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 8, 0.5, /*num_attrs=*/1);
    for (std::uint32_t beta : {1u, 2u, 3u}) {
      FairBicliqueParams params{2, beta, 0, 0.0};
      auto oracle = Canonicalize(BruteForceSSFBC(g, params));
      EXPECT_EQ(Collect(g, FairModel::kSsfbc, FairAlgo::kBcem, params), oracle)
          << "seed=" << seed << " beta=" << beta;
      EXPECT_EQ(Collect(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params),
                oracle)
          << "seed=" << seed << " beta=" << beta;
    }
  }
}

TEST(SingleAttrClass, DegeneratesToThresholdedMaximalBicliques) {
  // With one class and delta = 0 a fair set is just "size >= beta", so
  // SSFBCs are exactly the maximal bicliques with |L| >= alpha and
  // |R| >= beta (every closure is its own unique maximal fair subset).
  for (std::uint64_t seed = 20; seed < 30; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 8, 0.5, /*num_attrs=*/1);
    FairBicliqueParams params{2, 2, 0, 0.0};
    auto fair = Collect(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params);
    auto mbc = Canonicalize(
        BruteForceMaximalBicliques(g, params.alpha, params.beta, 0));
    EXPECT_EQ(fair, mbc) << "seed=" << seed;
  }
}

TEST(ThreeAttrClasses, SsfbcMatchesOracle) {
  for (std::uint64_t seed = 40; seed < 60; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 8, 0.6, /*num_attrs=*/3);
    for (std::uint32_t delta : {0u, 1u, 2u}) {
      FairBicliqueParams params{1, 1, delta, 0.0};
      auto oracle = Canonicalize(BruteForceSSFBC(g, params));
      EXPECT_EQ(Collect(g, FairModel::kSsfbc, FairAlgo::kBcem, params), oracle)
          << "seed=" << seed << " delta=" << delta;
      EXPECT_EQ(Collect(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params),
                oracle)
          << "seed=" << seed << " delta=" << delta;
      EXPECT_EQ(Collect(g, FairModel::kSsfbc, FairAlgo::kNaive, params), oracle)
          << "seed=" << seed << " delta=" << delta;
    }
  }
}

TEST(ThreeAttrClasses, BsfbcMatchesOracle) {
  for (std::uint64_t seed = 70; seed < 85; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 6, 0.65, /*num_attrs=*/3);
    FairBicliqueParams params{1, 1, 1, 0.0};
    auto oracle = Canonicalize(BruteForceBSFBC(g, params));
    EXPECT_EQ(Collect(g, FairModel::kBsfbc, FairAlgo::kBcem, params),
              oracle) << "seed=" << seed;
    EXPECT_EQ(Collect(g, FairModel::kBsfbc, FairAlgo::kPlusPlus, params),
              oracle)
        << "seed=" << seed;
  }
}

TEST(ThreeAttrClasses, ProportionalMatchesOracle) {
  // Exercises the general (non-closed-form) maximal-fair-vector search.
  for (std::uint64_t seed = 90; seed < 105; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 7, 0.65, /*num_attrs=*/3);
    for (double theta : {0.2, 0.3}) {
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

TEST(MixedAttrCounts, TwoUpperThreeLowerClasses) {
  // Different domain sizes per side (builder supports them
  // independently).
  for (std::uint64_t seed = 110; seed < 120; ++seed) {
    Rng rng(seed);
    BipartiteGraphBuilder builder(6, 6);
    for (VertexId u = 0; u < 6; ++u) {
      for (VertexId v = 0; v < 6; ++v) {
        if (rng.NextBool(0.6)) builder.AddEdge(u, v);
      }
    }
    builder.AssignRandomAttrs(Side::kUpper, 2, rng);
    builder.AssignRandomAttrs(Side::kLower, 3, rng);
    auto built = builder.Build();
    ASSERT_TRUE(built.ok());
    BipartiteGraph g = std::move(built).value();
    FairBicliqueParams params{1, 1, 1, 0.0};
    auto oracle = Canonicalize(BruteForceBSFBC(g, params));
    EXPECT_EQ(Collect(g, FairModel::kBsfbc, FairAlgo::kPlusPlus, params),
              oracle)
        << "seed=" << seed;
  }
}

}  // namespace
}  // namespace fairbc
