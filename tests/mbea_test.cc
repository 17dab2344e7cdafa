#include <gtest/gtest.h>

#include "core/bruteforce.h"
#include "core/mbea.h"
#include "test_util.h"

namespace fairbc {
namespace {

using ::fairbc::testing::Canonicalize;
using ::fairbc::testing::MakeGraph;
using ::fairbc::testing::RandomSmallGraph;

std::vector<Biclique> RunMbea(const BipartiteGraph& g, const MbeaConfig& cfg) {
  std::vector<Biclique> out;
  EnumerateMaximalBicliques(g, cfg,
                            [&](const EmitWorker&, std::span<const VertexId> u,
                                std::span<const VertexId> v) {
                              out.push_back(Biclique{{u.begin(), u.end()},
                                                     {v.begin(), v.end()}});
                              return true;
                            });
  return Canonicalize(std::move(out));
}

TEST(Mbea, CompleteBipartiteGraphHasOneMaximalBiclique) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 3; ++u) {
    for (VertexId v = 0; v < 4; ++v) edges.emplace_back(u, v);
  }
  BipartiteGraph g = MakeGraph(3, 4, edges, {0, 1, 0}, {0, 1, 0, 1});
  auto result = RunMbea(g, MbeaConfig{});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].upper, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(result[0].lower, (std::vector<VertexId>{0, 1, 2, 3}));
}

TEST(Mbea, TwoDisjointBicliques) {
  std::vector<std::pair<VertexId, VertexId>> edges = {
      {0, 0}, {0, 1}, {1, 0}, {1, 1},   // block A
      {2, 2}, {2, 3}, {3, 2}, {3, 3}};  // block B
  BipartiteGraph g = MakeGraph(4, 4, edges, {0, 1, 0, 1}, {0, 1, 0, 1});
  auto result = RunMbea(g, MbeaConfig{});
  ASSERT_EQ(result.size(), 2u);
}

TEST(Mbea, MatchesBruteForceOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 8, 0.45);
    for (std::uint32_t min_upper : {1u, 2u}) {
      for (std::uint32_t min_total : {1u, 3u}) {
        for (std::uint32_t min_attr : {0u, 1u}) {
          MbeaConfig cfg;
          cfg.min_upper = min_upper;
          cfg.min_lower_total = min_total;
          cfg.min_lower_per_attr = min_attr;
          auto got = RunMbea(g, cfg);
          auto want = Canonicalize(
              BruteForceMaximalBicliques(g, min_upper, min_total, min_attr));
          EXPECT_EQ(got, want)
              << "seed=" << seed << " mu=" << min_upper << " mt=" << min_total
              << " ma=" << min_attr << " " << g.DebugString();
        }
      }
    }
  }
}

TEST(Mbea, BothOrderingsGiveSameSet) {
  for (std::uint64_t seed = 100; seed < 115; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 12, 0.35);
    MbeaConfig id_cfg, deg_cfg;
    id_cfg.ordering = VertexOrdering::kId;
    deg_cfg.ordering = VertexOrdering::kDegreeDesc;
    EXPECT_EQ(RunMbea(g, id_cfg), RunMbea(g, deg_cfg)) << "seed=" << seed;
  }
}

TEST(Mbea, NoDuplicatesEmitted) {
  for (std::uint64_t seed = 200; seed < 210; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 12, 0.5);
    std::vector<Biclique> raw;
    EnumerateMaximalBicliques(g, MbeaConfig{},
                              [&](const EmitWorker&,
                                  std::span<const VertexId> u,
                                  std::span<const VertexId> v) {
                                raw.push_back(Biclique{{u.begin(), u.end()},
                                                       {v.begin(), v.end()}});
                                return true;
                              });
    auto canon = Canonicalize(raw);
    EXPECT_EQ(canon.size(), raw.size()) << "duplicate emission, seed=" << seed;
  }
}

TEST(Mbea, SinkAbortStopsEnumeration) {
  BipartiteGraph g = RandomSmallGraph(5, 10, 0.5);
  std::uint64_t calls = 0;
  MbeaStats stats = EnumerateMaximalBicliques(
      g, MbeaConfig{},
      [&](const EmitWorker&, std::span<const VertexId>,
          std::span<const VertexId>) {
        ++calls;
        return false;
      });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(stats.emitted, 1u);
}

TEST(Mbea, NodeBudgetStopsEarly) {
  BipartiteGraph g = RandomSmallGraph(6, 14, 0.5);
  MbeaConfig cfg;
  cfg.node_budget = 3;
  MbeaStats stats = EnumerateMaximalBicliques(
      g, cfg,
      [](const EmitWorker&, std::span<const VertexId>,
         std::span<const VertexId>) {
        return true;
      });
  EXPECT_TRUE(stats.budget_exhausted);
  EXPECT_LE(stats.search_nodes, 4u);
}

TEST(Mbea, EmptyGraphEmitsNothing) {
  BipartiteGraph g;
  MbeaStats stats = EnumerateMaximalBicliques(
      g, MbeaConfig{},
      [](const EmitWorker&, std::span<const VertexId>,
         std::span<const VertexId>) {
        return true;
      });
  EXPECT_EQ(stats.emitted, 0u);
}

}  // namespace
}  // namespace fairbc
