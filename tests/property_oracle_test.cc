// Property tests: every production enumerator must match the brute-force
// oracle exactly on randomized small graphs across the parameter grid,
// for all four models (SSFBC, BSFBC, PSSFBC, PBSFBC), all orderings and
// all pruning levels.

#include <gtest/gtest.h>

#include "core/bruteforce.h"
#include "core/pipeline.h"
#include "test_util.h"

namespace fairbc {
namespace {

using ::fairbc::testing::Collect;
using ::fairbc::testing::RandomSmallGraph;

struct GridCase {
  std::uint64_t seed;
  double density;
  std::uint32_t alpha;
  std::uint32_t beta;
  std::uint32_t delta;
  double theta;
};

std::vector<GridCase> MakeGrid() {
  std::vector<GridCase> grid;
  std::uint64_t seed = 1;
  for (double density : {0.25, 0.5, 0.75}) {
    for (std::uint32_t alpha : {1u, 2u}) {
      for (std::uint32_t beta : {1u, 2u}) {
        for (std::uint32_t delta : {0u, 1u, 2u}) {
          for (double theta : {0.0, 0.4}) {
            grid.push_back({seed++, density, alpha, beta, delta, theta});
          }
        }
      }
    }
  }
  return grid;
}

class OracleGridTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(OracleGridTest, SsfbcEnginesMatchBruteForce) {
  const GridCase& c = GetParam();
  BipartiteGraph g = RandomSmallGraph(c.seed, /*max_side=*/7, c.density);
  FairBicliqueParams params{c.alpha, c.beta, c.delta, c.theta};
  auto oracle = testing::Canonicalize(BruteForceSSFBC(g, params));

  for (VertexOrdering ord : {VertexOrdering::kId, VertexOrdering::kDegreeDesc}) {
    for (PruningLevel prune :
         {PruningLevel::kNone, PruningLevel::kCore, PruningLevel::kColorful}) {
      EnumOptions options;
      options.ordering = ord;
      options.pruning = prune;
      EXPECT_EQ(Collect(g, FairModel::kSsfbc, FairAlgo::kBcem, params, options),
                oracle)
          << "FairBCEM ord=" << static_cast<int>(ord)
          << " prune=" << static_cast<int>(prune) << " " << g.DebugString();
      EXPECT_EQ(Collect(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params,
                        options), oracle)
          << "FairBCEM++ ord=" << static_cast<int>(ord)
          << " prune=" << static_cast<int>(prune) << " " << g.DebugString();
      EXPECT_EQ(Collect(g, FairModel::kSsfbc, FairAlgo::kNaive, params,
                        options), oracle)
          << "NSF ord=" << static_cast<int>(ord)
          << " prune=" << static_cast<int>(prune) << " " << g.DebugString();
    }
  }
}

TEST_P(OracleGridTest, BsfbcEnginesMatchBruteForce) {
  const GridCase& c = GetParam();
  BipartiteGraph g = RandomSmallGraph(c.seed + 7777, /*max_side=*/6, c.density);
  FairBicliqueParams params{c.alpha, c.beta, c.delta, c.theta};
  auto oracle = testing::Canonicalize(BruteForceBSFBC(g, params));

  for (VertexOrdering ord : {VertexOrdering::kId, VertexOrdering::kDegreeDesc}) {
    for (PruningLevel prune :
         {PruningLevel::kNone, PruningLevel::kCore, PruningLevel::kColorful}) {
      EnumOptions options;
      options.ordering = ord;
      options.pruning = prune;
      EXPECT_EQ(Collect(g, FairModel::kBsfbc, FairAlgo::kBcem, params, options),
                oracle)
          << "BFairBCEM ord=" << static_cast<int>(ord)
          << " prune=" << static_cast<int>(prune) << " " << g.DebugString();
      EXPECT_EQ(Collect(g, FairModel::kBsfbc, FairAlgo::kPlusPlus, params,
                        options), oracle)
          << "BFairBCEM++ ord=" << static_cast<int>(ord)
          << " prune=" << static_cast<int>(prune) << " " << g.DebugString();
      EXPECT_EQ(Collect(g, FairModel::kBsfbc, FairAlgo::kNaive, params,
                        options), oracle)
          << "BNSF ord=" << static_cast<int>(ord)
          << " prune=" << static_cast<int>(prune) << " " << g.DebugString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, OracleGridTest,
                         ::testing::ValuesIn(MakeGrid()));

// Larger random graphs (no oracle, too big for brute force): the three
// SSFBC engines must agree with each other, as must the three BSFBC
// engines.
TEST(OracleCrossCheck, EnginesAgreeOnMediumGraphs) {
  for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    BipartiteGraph g = RandomSmallGraph(seed, /*max_side=*/14, 0.35);
    FairBicliqueParams params{2, 2, 1, 0.0};
    auto a = Collect(g, FairModel::kSsfbc, FairAlgo::kBcem, params);
    auto b = Collect(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params);
    auto c = Collect(g, FairModel::kSsfbc, FairAlgo::kNaive, params);
    EXPECT_EQ(a, b) << g.DebugString();
    EXPECT_EQ(a, c) << g.DebugString();

    auto ba = Collect(g, FairModel::kBsfbc, FairAlgo::kBcem, params);
    auto bb = Collect(g, FairModel::kBsfbc, FairAlgo::kPlusPlus, params);
    EXPECT_EQ(ba, bb) << g.DebugString();
  }
}

// Every emitted SSFBC must literally satisfy Def. 3 (direct check,
// independent of the maximality machinery).
TEST(OracleInvariants, EmittedSsfbcSatisfyDefinition) {
  BipartiteGraph g = RandomSmallGraph(99, /*max_side=*/10, 0.4);
  FairBicliqueParams params{2, 1, 1, 0.0};
  CollectSink sink;
  RunEnumeration(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params, {},
                 sink.AsSink());
  for (const Biclique& b : sink.results()) {
    ASSERT_FALSE(b.upper.empty());
    ASSERT_FALSE(b.lower.empty());
    EXPECT_GE(b.upper.size(), params.alpha);
    // Completeness of edges.
    for (VertexId u : b.upper) {
      for (VertexId v : b.lower) {
        EXPECT_TRUE(g.HasEdge(u, v)) << b.DebugString();
      }
    }
    // Fairness of the lower side.
    SizeVector sizes(g.NumAttrs(Side::kLower), 0);
    for (VertexId v : b.lower) ++sizes[g.Attr(Side::kLower, v)];
    EXPECT_TRUE(IsFeasibleVector(sizes, params.LowerSpec()))
        << b.DebugString();
  }
}

}  // namespace
}  // namespace fairbc
