#include <gtest/gtest.h>

#include <mutex>

#include "core/bruteforce.h"
#include "core/mbea.h"
#include "test_util.h"

namespace fairbc {
namespace {

using ::fairbc::testing::Canonicalize;
using ::fairbc::testing::MakeGraph;
using ::fairbc::testing::RandomSmallGraph;

// Canonical result set of one run. The sink may be called from several
// workers at once when options.num_threads != 1.
std::vector<Biclique> RunMbea(const BipartiteGraph& g,
                              const EnumOptions& options = {},
                              std::uint32_t min_upper = 1,
                              std::uint32_t min_lower_total = 1,
                              std::uint32_t min_lower_per_attr = 0) {
  std::mutex mu;
  std::vector<Biclique> out;
  EnumerateMaximalBicliques(g, min_upper, min_lower_total, min_lower_per_attr,
                            options,
                            [&](const EmitWorker&, std::span<const VertexId> u,
                                std::span<const VertexId> v) {
                              std::lock_guard<std::mutex> lock(mu);
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
  auto result = RunMbea(g);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].upper, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(result[0].lower, (std::vector<VertexId>{0, 1, 2, 3}));
}

TEST(Mbea, TwoDisjointBicliques) {
  std::vector<std::pair<VertexId, VertexId>> edges = {
      {0, 0}, {0, 1}, {1, 0}, {1, 1},   // block A
      {2, 2}, {2, 3}, {3, 2}, {3, 3}};  // block B
  BipartiteGraph g = MakeGraph(4, 4, edges, {0, 1, 0, 1}, {0, 1, 0, 1});
  auto result = RunMbea(g);
  ASSERT_EQ(result.size(), 2u);
}

TEST(Mbea, MatchesBruteForceOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 8, 0.45);
    for (std::uint32_t min_upper : {1u, 2u}) {
      for (std::uint32_t min_total : {1u, 3u}) {
        for (std::uint32_t min_attr : {0u, 1u}) {
          auto want = Canonicalize(
              BruteForceMaximalBicliques(g, min_upper, min_total, min_attr));
          for (unsigned threads : {1u, 2u, 8u}) {
            EnumOptions options;
            options.num_threads = threads;
            auto got = RunMbea(g, options, min_upper, min_total, min_attr);
            EXPECT_EQ(got, want)
                << "seed=" << seed << " mu=" << min_upper
                << " mt=" << min_total << " ma=" << min_attr
                << " threads=" << threads << " " << g.DebugString();
          }
        }
      }
    }
  }
}

TEST(Mbea, BothOrderingsGiveSameSet) {
  for (std::uint64_t seed = 100; seed < 115; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 12, 0.35);
    EnumOptions id_ord, deg_ord;
    id_ord.ordering = VertexOrdering::kId;
    deg_ord.ordering = VertexOrdering::kDegreeDesc;
    EXPECT_EQ(RunMbea(g, id_ord), RunMbea(g, deg_ord)) << "seed=" << seed;
  }
}

TEST(Mbea, NoDuplicatesEmitted) {
  for (std::uint64_t seed = 200; seed < 210; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 12, 0.5);
    std::vector<Biclique> raw;
    EnumerateMaximalBicliques(g, 1, 1, 0, {},
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
  EnumStats stats = EnumerateMaximalBicliques(
      g, 1, 1, 0, {},
      [&](const EmitWorker&, std::span<const VertexId>,
          std::span<const VertexId>) {
        ++calls;
        return false;
      });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(stats.num_results, 1u);
}

TEST(Mbea, NodeBudgetStopsEarly) {
  BipartiteGraph g = RandomSmallGraph(6, 14, 0.5);
  EnumOptions options;
  options.node_budget = 3;
  EnumStats stats = EnumerateMaximalBicliques(
      g, 1, 1, 0, options,
      [](const EmitWorker&, std::span<const VertexId>,
         std::span<const VertexId>) {
        return true;
      });
  EXPECT_TRUE(stats.budget_exhausted);
  EXPECT_LE(stats.search_nodes, 4u);
}

TEST(Mbea, EmptyGraphEmitsNothing) {
  BipartiteGraph g;
  EnumStats stats = EnumerateMaximalBicliques(
      g, 1, 1, 0, {},
      [](const EmitWorker&, std::span<const VertexId>,
         std::span<const VertexId>) {
        return true;
      });
  EXPECT_EQ(stats.num_results, 0u);
}

}  // namespace
}  // namespace fairbc
