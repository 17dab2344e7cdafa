#include <gtest/gtest.h>

#include <algorithm>

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

// Naive O(n^2) reference: count common alive neighbors directly.
UnipartiteGraph NaiveTwoHop(const BipartiteGraph& g, std::uint32_t alpha,
                            const SideMasks& masks, bool per_attr) {
  std::vector<AttrId> attrs(g.NumLower());
  for (VertexId v = 0; v < g.NumLower(); ++v) {
    attrs[v] = g.Attr(Side::kLower, v);
  }
  std::vector<std::pair<VertexId, VertexId>> edges;
  const AttrId au = g.NumAttrs(Side::kUpper);
  for (VertexId a = 0; a < g.NumLower(); ++a) {
    if (!masks.lower_alive[a]) continue;
    for (VertexId b = a + 1; b < g.NumLower(); ++b) {
      if (!masks.lower_alive[b]) continue;
      SizeVector common(au, 0);
      for (VertexId u : g.Neighbors(Side::kLower, a)) {
        if (!masks.upper_alive[u]) continue;
        auto nb = g.Neighbors(Side::kLower, b);
        if (std::binary_search(nb.begin(), nb.end(), u)) {
          ++common[g.Attr(Side::kUpper, u)];
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
  return UnipartiteGraph::FromEdges(g.NumLower(), edges, std::move(attrs),
                                    g.NumAttrs(Side::kLower));
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
      UnipartiteGraph slow = NaiveTwoHop(g, alpha, masks, false);
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
      UnipartiteGraph slow = NaiveTwoHop(g, alpha, masks, true);
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
