// Degenerate-parameter edge cases: alpha = 0 (no upper size constraint
// beyond nonemptiness), beta = 0 (classes may be empty), and the
// paper's hardness reduction (alpha = 0, beta = 0, delta = n degenerates
// SSFBC enumeration to plain maximal biclique enumeration) — all
// validated against the brute-force oracle.

#include <gtest/gtest.h>

#include "core/bruteforce.h"
#include "core/pipeline.h"
#include "test_util.h"

namespace fairbc {
namespace {

using ::fairbc::testing::Canonicalize;
using ::fairbc::testing::Collect;
using ::fairbc::testing::RandomSmallGraph;

TEST(ZeroParams, AlphaZeroMatchesOracle) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 7, 0.5);
    FairBicliqueParams params{0, 1, 1, 0.0};
    auto oracle = Canonicalize(BruteForceSSFBC(g, params));
    EXPECT_EQ(Collect(g, FairModel::kSsfbc, FairAlgo::kBcem, params),
              oracle) << "seed=" << seed;
    EXPECT_EQ(Collect(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params),
              oracle)
        << "seed=" << seed;
  }
}

TEST(ZeroParams, BetaZeroMatchesOracle) {
  for (std::uint64_t seed = 20; seed < 35; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 7, 0.5);
    for (std::uint32_t delta : {0u, 2u}) {
      FairBicliqueParams params{1, 0, delta, 0.0};
      auto oracle = Canonicalize(BruteForceSSFBC(g, params));
      EXPECT_EQ(Collect(g, FairModel::kSsfbc, FairAlgo::kBcem, params), oracle)
          << "seed=" << seed << " delta=" << delta;
      EXPECT_EQ(Collect(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params),
                oracle)
          << "seed=" << seed << " delta=" << delta;
    }
  }
}

TEST(ZeroParams, HardnessReductionToMaximalBicliques) {
  // alpha=0, beta=0, delta=n: the fairness constraints are vacuous, so
  // SSFBCs are exactly the maximal bicliques (paper §II Hardness).
  for (std::uint64_t seed = 40; seed < 55; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 7, 0.5);
    FairBicliqueParams params{0, 0,
                              g.NumLower() + g.NumUpper(), 0.0};
    auto fair = Collect(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params);
    auto mbc = Canonicalize(BruteForceMaximalBicliques(g, 1, 1, 0));
    EXPECT_EQ(fair, mbc) << "seed=" << seed << " " << g.DebugString();
    EXPECT_EQ(Collect(g, FairModel::kSsfbc, FairAlgo::kBcem, params),
              mbc) << "seed=" << seed;
  }
}

TEST(ZeroParams, BiSideZeroAlphaMatchesOracle) {
  for (std::uint64_t seed = 60; seed < 70; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 6, 0.55);
    FairBicliqueParams params{0, 1, 1, 0.0};
    auto oracle = Canonicalize(BruteForceBSFBC(g, params));
    EXPECT_EQ(Collect(g, FairModel::kBsfbc, FairAlgo::kBcem, params),
              oracle) << "seed=" << seed;
    EXPECT_EQ(Collect(g, FairModel::kBsfbc, FairAlgo::kPlusPlus, params),
              oracle)
        << "seed=" << seed;
  }
}

TEST(ZeroParams, HugeDeltaEqualsBetaOnlyConstraint) {
  // With delta larger than the graph, fairness reduces to the per-class
  // minimum; cross-check the two engines.
  for (std::uint64_t seed = 80; seed < 90; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 8, 0.5);
    FairBicliqueParams params{1, 1, 100, 0.0};
    auto oracle = Canonicalize(BruteForceSSFBC(g, params));
    EXPECT_EQ(Collect(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params),
              oracle)
        << "seed=" << seed;
  }
}

}  // namespace
}  // namespace fairbc
