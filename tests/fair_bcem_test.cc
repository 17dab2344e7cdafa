#include <gtest/gtest.h>

#include "core/bruteforce.h"
#include "core/pipeline.h"
#include "test_util.h"

namespace fairbc {
namespace {

using ::fairbc::testing::Canonicalize;
using ::fairbc::testing::Collect;
using ::fairbc::testing::MakeGraph;
using ::fairbc::testing::PaperExampleGraph;
using ::fairbc::testing::RandomSmallGraph;

TEST(FairBcem, PlantedFairBicliqueFound) {
  BipartiteGraph g = PaperExampleGraph();
  FairBicliqueParams params{1, 2, 1, 0.0};
  auto results = Collect(g, FairModel::kSsfbc, FairAlgo::kBcem, params);
  ASSERT_FALSE(results.empty());
  // The planted biclique {u2,u3} x {v1,v3,v5,v8} must appear.
  Biclique planted;
  planted.upper = {2, 3};
  planted.lower = {1, 3, 5, 8};
  EXPECT_TRUE(std::find(results.begin(), results.end(), planted) !=
              results.end());
  // And it matches the oracle.
  EXPECT_EQ(results, Canonicalize(BruteForceSSFBC(g, params)));
}

TEST(FairBcem, NoFairBicliqueWhenClassMissing) {
  // All lower vertices in class 0: beta >= 1 on class 1 can't be met.
  BipartiteGraph g = MakeGraph(2, 3, {{0, 0}, {0, 1}, {1, 1}, {1, 2}},
                               {0, 1}, {0, 0, 0});
  FairBicliqueParams params{1, 1, 2, 0.0};
  EXPECT_TRUE(Collect(g, FairModel::kSsfbc, FairAlgo::kBcem, params).empty());
  EXPECT_TRUE(Collect(g, FairModel::kSsfbc, FairAlgo::kPlusPlus,
                      params).empty());
}

TEST(FairBcem, DeltaZeroForcesExactBalance) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 2; ++u) {
    for (VertexId v = 0; v < 5; ++v) edges.emplace_back(u, v);
  }
  // Lower classes: 3 of class 0, 2 of class 1.
  BipartiteGraph g = MakeGraph(2, 5, edges, {0, 1}, {0, 0, 0, 1, 1});
  FairBicliqueParams params{1, 1, 0, 0.0};
  auto results = Collect(g, FairModel::kSsfbc, FairAlgo::kBcem, params);
  // Maximal fair subsets pick 2 of the 3 class-0 vertices: C(3,2)=3.
  EXPECT_EQ(results.size(), 3u);
  for (const auto& b : results) {
    EXPECT_EQ(b.lower.size(), 4u);
  }
  EXPECT_EQ(results, Canonicalize(BruteForceSSFBC(g, params)));
}

TEST(FairBcem, AlphaFiltersSmallUpperSides) {
  BipartiteGraph g = MakeGraph(2, 2, {{0, 0}, {0, 1}, {1, 0}}, {0, 1}, {0, 1});
  // alpha=2: only bicliques whose common neighborhood has both uppers.
  FairBicliqueParams params{2, 1, 1, 0.0};
  auto results = Collect(g, FairModel::kSsfbc, FairAlgo::kBcem, params);
  EXPECT_EQ(results, Canonicalize(BruteForceSSFBC(g, params)));
  for (const auto& b : results) EXPECT_GE(b.upper.size(), 2u);
}

TEST(FairBcem, SearchOptionAblationsStayCorrect) {
  // Each pruning observation can be disabled independently without
  // changing the output, only the search size (ablation A2): a rule that
  // is off never shrinks the search, and NSF (every rule off) searches at
  // least as much as any row. Every rule but prune_small_l must also grow
  // the search on some graph; prune_small_l is redundant next to the
  // alpha candidate filter (see fair_bcem.h), so it only gets the >=.
  constexpr int kRules = 5;
  bool grew[kRules] = {};
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 7, 0.5);
    for (const FairBicliqueParams& params :
         {FairBicliqueParams{1, 1, 1, 0.0}, FairBicliqueParams{2, 1, 1, 0.0}}) {
      auto oracle = Canonicalize(BruteForceSSFBC(g, params));
      auto run = [&](const FairBcemSearchOptions& search) {
        CollectSink sink;
        EnumStats stats = EnumerateSSFBCWithSearchOptions(g, params, {}, search,
                                                          sink.AsSink());
        EXPECT_EQ(Canonicalize(sink.results()), oracle)
            << "seed=" << seed << " alpha=" << params.alpha;
        return stats.search_nodes;
      };
      const std::uint64_t all_on = run(FairBcemSearchOptions{});
      const std::uint64_t nsf = run(NaiveSearchOptions());
      EXPECT_GE(nsf, all_on) << "seed=" << seed;
      for (int off_bit = 0; off_bit < kRules; ++off_bit) {
        FairBcemSearchOptions search;
        if (off_bit == 0) search.prune_small_l = false;
        if (off_bit == 1) search.prune_excluded_full = false;
        if (off_bit == 2) search.prune_class_counts = false;
        if (off_bit == 3) search.absorb_full_candidates = false;
        if (off_bit == 4) search.filter_candidates_alpha = false;
        const std::uint64_t nodes = run(search);
        EXPECT_GE(nodes, all_on) << "seed=" << seed << " off_bit=" << off_bit;
        EXPECT_LE(nodes, nsf) << "seed=" << seed << " off_bit=" << off_bit;
        grew[off_bit] = grew[off_bit] || nodes > all_on;
      }
    }
  }
  for (int off_bit = 1; off_bit < kRules; ++off_bit) {
    EXPECT_TRUE(grew[off_bit]) << "off_bit=" << off_bit;
  }
}

TEST(FairBcem, NodeBudgetReportsExhaustion) {
  BipartiteGraph g = RandomSmallGraph(3, 14, 0.5);
  FairBicliqueParams params{1, 1, 2, 0.0};
  EnumOptions options;
  options.node_budget = 2;
  CountSink sink;
  EnumStats stats = RunEnumeration(g, FairModel::kSsfbc, FairAlgo::kBcem,
                                   params, options, sink.AsSink());
  EXPECT_TRUE(stats.budget_exhausted);
}

TEST(FairBcem, StatsReportRemainingVertices) {
  BipartiteGraph g = RandomSmallGraph(4, 10, 0.4);
  FairBicliqueParams params{2, 2, 1, 0.0};
  CountSink sink;
  EnumStats stats = RunEnumeration(g, FairModel::kSsfbc, FairAlgo::kBcem,
                                   params, {}, sink.AsSink());
  EXPECT_LE(stats.remaining_upper, g.NumUpper());
  EXPECT_LE(stats.remaining_lower, g.NumLower());
  EXPECT_EQ(stats.num_results, sink.count());
  EXPECT_FALSE(stats.DebugString().empty());
}

TEST(FairBcemPp, CountsMaximalBicliquesVisited) {
  BipartiteGraph g = RandomSmallGraph(8, 10, 0.4);
  FairBicliqueParams params{1, 1, 1, 0.0};
  CountSink sink;
  EnumStats stats = RunEnumeration(g, FairModel::kSsfbc, FairAlgo::kPlusPlus,
                                   params, {}, sink.AsSink());
  EXPECT_GE(stats.maximal_bicliques_visited, 0u);
}

TEST(FairBcem, EmptyGraph) {
  BipartiteGraph g;
  FairBicliqueParams params{1, 1, 1, 0.0};
  CountSink sink;
  EnumStats stats = RunEnumeration(g, FairModel::kSsfbc, FairAlgo::kBcem,
                                   params, {}, sink.AsSink());
  EXPECT_EQ(stats.num_results, 0u);
}

}  // namespace
}  // namespace fairbc
