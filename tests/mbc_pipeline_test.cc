// Oracle test for the maximal-biclique pipeline entry point used by the
// Fig. 6 count comparisons (EnumerateMaximalBicliquesPruned).

#include <gtest/gtest.h>

#include "core/bruteforce.h"
#include "core/pipeline.h"
#include "test_util.h"

namespace fairbc {
namespace {

using ::fairbc::testing::Canonicalize;
using ::fairbc::testing::MakeGraph;
using ::fairbc::testing::RandomSmallGraph;

TEST(MbcPipeline, MatchesBruteForceAcrossThresholds) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 8, 0.5);
    for (std::uint32_t min_u : {1u, 2u, 3u}) {
      for (std::uint32_t min_v : {1u, 2u, 4u}) {
        auto want =
            Canonicalize(BruteForceMaximalBicliques(g, min_u, min_v, 0));
        for (unsigned threads : {1u, 2u, 8u}) {
          EnumOptions options;
          options.num_threads = threads;
          CollectSink sink;
          EnumerateMaximalBicliquesPruned(g, min_u, min_v, options,
                                          sink.AsSink());
          auto got = Canonicalize(sink.results());
          EXPECT_EQ(got, want) << "seed=" << seed << " mu=" << min_u
                               << " mv=" << min_v << " threads=" << threads
                               << " " << g.DebugString();
        }
      }
    }
  }
}

TEST(MbcPipeline, CountsAgreeWithPaperProtocolThresholds) {
  // The Fig. 6 protocol: |L| >= alpha, |R| >= 2*beta. Sanity: raising
  // beta can only shrink the count.
  BipartiteGraph g = RandomSmallGraph(99, 12, 0.4);
  std::uint64_t prev = UINT64_MAX;
  for (std::uint32_t beta = 1; beta <= 4; ++beta) {
    CountSink sink;
    EnumerateMaximalBicliquesPruned(g, 2, 2 * beta, {}, sink.AsSink());
    EXPECT_LE(sink.count(), prev) << "beta=" << beta;
    prev = sink.count();
  }
}

TEST(MbcPipeline, DegreeCoreDropsLowDegreeVertices) {
  // K(3,4) on upper {0,1,2} x lower {0..3}, plus low-degree hangers-on:
  // upper 3 and lower 4 have degree 1; upper 4 has degree 2 and loses a
  // neighbor when lower 5 (degree 1) is peeled.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 3; ++u) {
    for (VertexId v = 0; v < 4; ++v) edges.emplace_back(u, v);
  }
  edges.insert(edges.end(), {{3, 0}, {0, 4}, {4, 0}, {4, 5}});
  BipartiteGraph g = MakeGraph(5, 6, edges, {0, 1, 0, 1, 0},
                               {0, 1, 0, 1, 0, 1});
  // |L| >= 2 needs lower degree >= 2; |R| >= 3 needs upper degree >= 3.
  CollectSink sink;
  EnumStats stats = EnumerateMaximalBicliquesPruned(g, 2, 3, {}, sink.AsSink());
  EXPECT_EQ(stats.remaining_upper, 3u);
  EXPECT_EQ(stats.remaining_lower, 4u);
  EXPECT_EQ(stats.num_results, sink.results().size());
  EXPECT_EQ(Canonicalize(sink.results()),
            Canonicalize(BruteForceMaximalBicliques(g, 2, 3, 0)));
}

TEST(MbcPipeline, OrderingInvariance) {
  for (std::uint64_t seed = 40; seed < 50; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 12, 0.4);
    EnumOptions id_ord, deg_ord;
    id_ord.ordering = VertexOrdering::kId;
    deg_ord.ordering = VertexOrdering::kDegreeDesc;
    CollectSink a, b;
    EnumerateMaximalBicliquesPruned(g, 2, 2, id_ord, a.AsSink());
    EnumerateMaximalBicliquesPruned(g, 2, 2, deg_ord, b.AsSink());
    EXPECT_EQ(Canonicalize(a.results()), Canonicalize(b.results()))
        << "seed=" << seed;
  }
}

}  // namespace
}  // namespace fairbc
