#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/kernels.h"
#include "core/reduction_context.h"
#include "core/two_hop_graph.h"
#include "graph/generators.h"
#include "test_util.h"

namespace fairbc {
namespace {

using ::fairbc::testing::MakeGraph;
using ::fairbc::testing::RandomSmallGraph;

SideMasks AllAlive(const BipartiteGraph& g) {
  SideMasks masks;
  masks.upper_alive.assign(g.NumUpper(), 1);
  masks.lower_alive.assign(g.NumLower(), 1);
  return masks;
}

// Naive O(n^2) reference on `side`: count common alive neighbors of
// every alive pair directly, by binary search.
UnipartiteGraph NaiveTwoHop(const BipartiteGraph& g, Side side,
                            std::uint32_t alpha, const SideMasks& masks,
                            bool per_attr) {
  const Side other = Opposite(side);
  const auto& alive =
      side == Side::kLower ? masks.lower_alive : masks.upper_alive;
  const auto& other_alive =
      side == Side::kLower ? masks.upper_alive : masks.lower_alive;
  const VertexId n = g.NumVertices(side);
  std::vector<AttrId> attrs(n);
  for (VertexId v = 0; v < n; ++v) attrs[v] = g.Attr(side, v);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId a = 0; a < n; ++a) {
    if (!alive[a]) continue;
    for (VertexId b = a + 1; b < n; ++b) {
      if (!alive[b]) continue;
      SizeVector common(g.NumAttrs(other), 0);
      for (VertexId u : g.Neighbors(side, a)) {
        if (!other_alive[u]) continue;
        auto nb = g.Neighbors(side, b);
        if (std::binary_search(nb.begin(), nb.end(), u)) {
          ++common[g.Attr(other, u)];
        }
      }
      bool connect;
      if (per_attr) {
        connect = true;
        for (auto c : common) connect &= (c >= alpha);
      } else {
        std::uint32_t total = 0;
        for (auto c : common) total += c;
        connect = total >= alpha;
      }
      if (connect) edges.emplace_back(a, b);
    }
  }
  return UnipartiteGraph::FromEdges(n, edges, std::move(attrs),
                                    g.NumAttrs(side));
}

TEST(TwoHop, SimpleSharedNeighbors) {
  // v0 and v1 share u0,u1; v2 shares only u1 with them.
  BipartiteGraph g = MakeGraph(2, 3,
                               {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {1, 2}},
                               {0, 1}, {0, 1, 0});
  UnipartiteGraph h = Construct2HopGraph(g, Side::kLower, 2, AllAlive(g));
  const auto adj = h.AdjacencyLists();
  EXPECT_EQ(adj[0], (std::vector<VertexId>{1}));
  EXPECT_EQ(adj[1], (std::vector<VertexId>{0}));
  EXPECT_TRUE(adj[2].empty());
  EXPECT_EQ(h.NumEdges(), 1u);
}

TEST(TwoHop, MatchesNaiveOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 10, 0.4);
    SideMasks masks = AllAlive(g);
    // Kill a few vertices to exercise mask handling.
    if (g.NumUpper() > 2) masks.upper_alive[0] = 0;
    if (g.NumLower() > 2) masks.lower_alive[1] = 0;
    for (std::uint32_t alpha : {1u, 2u, 3u}) {
      UnipartiteGraph fast = Construct2HopGraph(g, Side::kLower, alpha, masks);
      UnipartiteGraph slow =
          NaiveTwoHop(g, Side::kLower, alpha, masks, false);
      EXPECT_EQ(fast, slow) << "seed=" << seed << " alpha=" << alpha;
    }
  }
}

TEST(BiTwoHop, MatchesNaiveOnRandomGraphs) {
  for (std::uint64_t seed = 50; seed < 75; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 10, 0.45);
    SideMasks masks = AllAlive(g);
    for (std::uint32_t alpha : {1u, 2u}) {
      UnipartiteGraph fast = BiConstruct2HopGraph(g, Side::kLower, alpha, masks);
      UnipartiteGraph slow =
          NaiveTwoHop(g, Side::kLower, alpha, masks, true);
      EXPECT_EQ(fast, slow) << "seed=" << seed << " alpha=" << alpha;
    }
  }
}

TEST(BiTwoHop, RequiresCommonNeighborsPerClass) {
  // v0,v1 share two class-0 uppers but no class-1 upper.
  BipartiteGraph g = MakeGraph(3, 2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}},
                               {0, 0, 1}, {0, 1});
  UnipartiteGraph h = BiConstruct2HopGraph(g, Side::kLower, 1, AllAlive(g));
  EXPECT_TRUE(h.Neighbors(0).empty());
  EXPECT_TRUE(h.Neighbors(1).empty());
}

TEST(TwoHop, UpperSideConstruction) {
  // Build the 2-hop graph on the upper side (used by BCFCore).
  BipartiteGraph g = MakeGraph(3, 2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 1}},
                               {0, 1, 0}, {0, 1});
  UnipartiteGraph h = Construct2HopGraph(g, Side::kUpper, 2, AllAlive(g));
  // u0,u1 share v0,v1; u2 shares only v1.
  const auto adj = h.AdjacencyLists();
  EXPECT_EQ(adj[0], (std::vector<VertexId>{1}));
  EXPECT_EQ(adj[1], (std::vector<VertexId>{0}));
  EXPECT_TRUE(adj[2].empty());
  EXPECT_EQ(h.num_attrs, g.NumAttrs(Side::kUpper));
}

TEST(TwoHop, MemoryBytesNonZero) {
  BipartiteGraph g = RandomSmallGraph(7, 10, 0.5);
  UnipartiteGraph h = Construct2HopGraph(g, Side::kLower, 1, AllAlive(g));
  EXPECT_GT(h.MemoryBytes(), 0u);
}

TEST(TwoHop, MemoryBytesCoversCsrArraysExactly) {
  BipartiteGraph g = RandomSmallGraph(7, 10, 0.5);
  UnipartiteGraph h = Construct2HopGraph(g, Side::kLower, 1, AllAlive(g));
  // Independently computed from the element counts: n+1 offsets, one
  // attr per vertex, each undirected edge stored twice. Construction is
  // exact-fit, so the report must match with no per-vector bookkeeping
  // approximations or overhead terms.
  const std::size_t n = h.NumVertices();
  EXPECT_EQ(h.MemoryBytes(), (n + 1) * sizeof(EdgeIndex) +
                                 2 * h.NumEdges() * sizeof(VertexId) +
                                 n * sizeof(AttrId));
}

// The sharded parallel construction must produce byte-identical CSR
// output (offsets, neighbors, attrs) at every thread count, on both the
// single-side and bi-side variants.
TEST(TwoHop, ParallelConstructionByteIdentical) {
  std::vector<BipartiteGraph> graphs;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    graphs.push_back(RandomSmallGraph(seed, 12, 0.4));
  }
  graphs.push_back(MakeUniformRandom(300, 300, 2400, 2, 33));
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const BipartiteGraph& g = graphs[i];
    SideMasks masks = AllAlive(g);
    if (g.NumUpper() > 2) masks.upper_alive[0] = 0;
    if (g.NumLower() > 2) masks.lower_alive[1] = 0;
    for (std::uint32_t alpha : {1u, 2u}) {
      const UnipartiteGraph serial =
          Construct2HopGraph(g, Side::kLower, alpha, masks);
      const UnipartiteGraph serial_bi =
          BiConstruct2HopGraph(g, Side::kLower, alpha, masks);
      for (unsigned threads : {2u, 8u}) {
        ReductionContext ctx(threads);
        EXPECT_EQ(serial, Construct2HopGraph(g, Side::kLower, alpha, masks,
                                             &ctx))
            << "graph=" << i << " alpha=" << alpha << " threads=" << threads;
        EXPECT_EQ(serial_bi, BiConstruct2HopGraph(g, Side::kLower, alpha,
                                                  masks, &ctx))
            << "graph=" << i << " alpha=" << alpha << " threads=" << threads;
      }
    }
  }
}

// Hub-heavy planted-affiliation graph: heavy noise with preferential
// attachment gives the upper side high-degree hubs, so most neighbor list
// walks stop at the `w < v` cut and many pairs reach the mirror pass.
BipartiteGraph HubHeavyAffiliation() {
  AffiliationConfig config;
  config.num_upper = 90;
  config.num_lower = 90;
  config.num_communities = 8;
  config.noise_fraction = 2.5;
  config.noise_attach_community = 0.6;
  config.num_upper_attrs = 2;
  config.num_lower_attrs = 3;
  config.seed = 61;
  return MakeAffiliation(config);
}

// Kills each vertex on both sides with probability 1/4 (seeded).
SideMasks RandomMasks(const BipartiteGraph& g, std::uint64_t seed) {
  Rng rng(seed);
  SideMasks masks = AllAlive(g);
  for (char& a : masks.upper_alive) a = rng.NextBool(0.25) ? 0 : 1;
  for (char& a : masks.lower_alive) a = rng.NextBool(0.25) ? 0 : 1;
  return masks;
}

// Both constructions on both sides, with dead vertices on both sides,
// match the oracle for alpha 1..4, with a null context and through
// contexts of 1, 2 and 8 threads.
TEST(TwoHop, MatchesNaiveOnBothSidesAndVariants) {
  std::vector<BipartiteGraph> graphs;
  for (std::uint64_t seed = 100; seed < 106; ++seed) {
    graphs.push_back(RandomSmallGraph(seed, 14, 0.45));
  }
  graphs.push_back(HubHeavyAffiliation());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const BipartiteGraph& g = graphs[i];
    for (const SideMasks& masks : {AllAlive(g), RandomMasks(g, 700 + i)}) {
      for (Side side : {Side::kLower, Side::kUpper}) {
        for (bool per_attr : {false, true}) {
          for (std::uint32_t alpha : {1u, 2u, 3u, 4u}) {
            const UnipartiteGraph expected =
                NaiveTwoHop(g, side, alpha, masks, per_attr);
            auto build = [&](ReductionContext* ctx) {
              return per_attr
                         ? BiConstruct2HopGraph(g, side, alpha, masks, ctx)
                         : Construct2HopGraph(g, side, alpha, masks, ctx);
            };
            const std::string label =
                "graph=" + std::to_string(i) +
                " side=" + (side == Side::kLower ? "lower" : "upper") +
                " per_attr=" + std::to_string(per_attr) +
                " alpha=" + std::to_string(alpha);
            EXPECT_EQ(build(nullptr), expected) << label;
            for (unsigned threads : {1u, 2u, 8u}) {
              ReductionContext ctx(threads);
              EXPECT_EQ(build(&ctx), expected)
                  << label << " threads=" << threads;
            }
          }
        }
      }
    }
  }
}

// The hub-heavy graph really has a 2-hop graph worth checking: hubs make
// dense neighborhoods, so the oracle comparison above is not vacuous.
TEST(TwoHop, HubHeavyGraphHasDenseTwoHopNeighborhoods) {
  const BipartiteGraph g = HubHeavyAffiliation();
  const UnipartiteGraph h = Construct2HopGraph(g, Side::kLower, 2, AllAlive(g));
  VertexId max_degree = 0;
  for (VertexId v = 0; v < h.NumVertices(); ++v) {
    max_degree = std::max(max_degree, h.Degree(v));
  }
  EXPECT_GT(h.NumEdges(), 2000u);
  EXPECT_GT(max_degree, 60u);
}

TEST(Intersect, Helpers) {
  std::vector<VertexId> a{1, 3, 5, 7};
  std::vector<VertexId> b{2, 3, 5, 8};
  std::vector<VertexId> out(a.size());
  EXPECT_EQ(IntersectSize(a, b), 2u);
  out.resize(IntersectInto(out.data(), a, b));
  EXPECT_EQ(out, (std::vector<VertexId>{3, 5}));
  EXPECT_EQ(IntersectSize(a, {}), 0u);
  EXPECT_EQ(IntersectInto(out.data(), {}, b), 0u);
}

}  // namespace
}  // namespace fairbc
