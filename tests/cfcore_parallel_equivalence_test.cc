// Serial-vs-parallel equivalence of the graph-reduction peeling: for
// every generator family and every num_threads in {2, 8} the parallel
// frontier-based peel must produce byte-identical alive masks (and hence
// identical induced-subgraph degrees) to the serial queue-based peel.
// The core is a unique maximal fixpoint, so any peel order must converge
// to the same set — these tests pin that down across FCore, BFCore,
// CFCore, BCFCore and the raw EgoColorfulCorePeel, including a
// single-giant-community graph whose one dominating subtree also
// exercises the engines' depth-adaptive task splitting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/cfcore.h"
#include "core/coloring.h"
#include "core/fcore.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "core/reduction_context.h"
#include "core/two_hop_graph.h"
#include "graph/generators.h"
#include "test_util.h"

namespace fairbc {
namespace {

using ::fairbc::testing::Canonicalize;
using ::fairbc::testing::RandomSmallGraph;

constexpr unsigned kThreadCounts[] = {2, 8};

// One planted community covering a third of each side: after pruning the
// search tree is dominated by a single root subtree, the shape the
// depth-adaptive splitter exists for.
BipartiteGraph SingleGiantCommunityGraph() {
  AffiliationConfig config;
  config.num_upper = 150;
  config.num_lower = 150;
  config.num_communities = 1;
  config.community_upper_min = 20;
  config.community_upper_max = 26;
  config.community_lower_min = 20;
  config.community_lower_max = 26;
  config.noise_fraction = 0.4;
  config.seed = 13;
  return MakeAffiliation(config);
}

std::vector<BipartiteGraph> GeneratorGraphs() {
  std::vector<BipartiteGraph> graphs;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    graphs.push_back(RandomSmallGraph(seed, 14, 0.4));
  }
  graphs.push_back(MakeUniformRandom(200, 200, 1600, 2, 21));
  graphs.push_back(MakePowerLaw(200, 200, 1600, 2.2, 2, 22));
  AffiliationConfig config;
  config.num_upper = 150;
  config.num_lower = 150;
  config.num_communities = 10;
  config.seed = 23;
  graphs.push_back(MakeAffiliation(config));
  graphs.push_back(SingleGiantCommunityGraph());
  return graphs;
}

// Degree sequence of the alive-induced subgraph on both sides; equal
// masks imply equal degrees, so this is a belt-and-braces check that the
// masks really describe the same subgraph.
std::vector<VertexId> AliveDegrees(const BipartiteGraph& g,
                                   const SideMasks& masks) {
  std::vector<VertexId> degrees;
  for (VertexId u = 0; u < g.NumUpper(); ++u) {
    if (!masks.upper_alive[u]) continue;
    VertexId d = 0;
    for (VertexId v : g.Neighbors(Side::kUpper, u)) {
      if (masks.lower_alive[v]) ++d;
    }
    degrees.push_back(d);
  }
  for (VertexId v = 0; v < g.NumLower(); ++v) {
    if (!masks.lower_alive[v]) continue;
    VertexId d = 0;
    for (VertexId u : g.Neighbors(Side::kLower, v)) {
      if (masks.upper_alive[u]) ++d;
    }
    degrees.push_back(d);
  }
  return degrees;
}

void ExpectMasksEqual(const BipartiteGraph& g, const SideMasks& serial,
                      const SideMasks& parallel, const std::string& label) {
  EXPECT_EQ(serial.upper_alive, parallel.upper_alive) << label;
  EXPECT_EQ(serial.lower_alive, parallel.lower_alive) << label;
  EXPECT_EQ(AliveDegrees(g, serial), AliveDegrees(g, parallel)) << label;
}

TEST(PeelParallelEquivalence, FCoreAndBFCore) {
  const std::vector<BipartiteGraph> graphs = GeneratorGraphs();
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const BipartiteGraph& g = graphs[i];
    for (std::uint32_t alpha : {1u, 2u, 3u}) {
      for (std::uint32_t beta : {1u, 2u}) {
        const SideMasks serial_f = FCore(g, alpha, beta);
        const SideMasks serial_bf = BFCore(g, alpha, beta);
        for (unsigned threads : kThreadCounts) {
          ReductionContext ctx(threads);
          const std::string label = "graph=" + std::to_string(i) +
                                    " alpha=" + std::to_string(alpha) +
                                    " beta=" + std::to_string(beta) +
                                    " threads=" + std::to_string(threads);
          ExpectMasksEqual(g, serial_f, FCore(g, alpha, beta, &ctx),
                           "FCore " + label);
          ExpectMasksEqual(g, serial_bf, BFCore(g, alpha, beta, &ctx),
                           "BFCore " + label);
        }
      }
    }
  }
}

TEST(PeelParallelEquivalence, CFCoreAndBCFCore) {
  const std::vector<BipartiteGraph> graphs = GeneratorGraphs();
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const BipartiteGraph& g = graphs[i];
    for (std::uint32_t alpha : {1u, 2u}) {
      for (std::uint32_t beta : {1u, 2u}) {
        const PruneResult serial_c = CFCore(g, alpha, beta);
        const PruneResult serial_bc = BCFCore(g, alpha, beta);
        for (unsigned threads : kThreadCounts) {
          ReductionContext ctx(threads);
          const std::string label = "graph=" + std::to_string(i) +
                                    " alpha=" + std::to_string(alpha) +
                                    " beta=" + std::to_string(beta) +
                                    " threads=" + std::to_string(threads);
          ExpectMasksEqual(g, serial_c.masks,
                           CFCore(g, alpha, beta, &ctx).masks,
                           "CFCore " + label);
          ExpectMasksEqual(g, serial_bc.masks,
                           BCFCore(g, alpha, beta, &ctx).masks,
                           "BCFCore " + label);
        }
      }
    }
  }
}

TEST(PeelParallelEquivalence, EgoColorfulCorePeelDirect) {
  const BipartiteGraph g = SingleGiantCommunityGraph();
  const SideMasks masks = FCore(g, 2, 2);
  const UnipartiteGraph h = Construct2HopGraph(g, Side::kLower, 2, masks);
  const Coloring coloring = GreedyColor(h, masks.lower_alive);
  for (std::uint32_t k : {1u, 2u, 3u}) {
    std::vector<char> serial = masks.lower_alive;
    EgoColorfulCorePeel(h, coloring, k, serial, nullptr);
    for (unsigned threads : kThreadCounts) {
      ReductionContext ctx(threads);
      std::vector<char> parallel = masks.lower_alive;
      EgoColorfulCorePeel(h, coloring, k, parallel, nullptr, &ctx);
      EXPECT_EQ(serial, parallel)
          << "k=" << k << " threads=" << threads;
    }
  }
}

// FNV-1a over the upper mask bytes, then the lower mask bytes.
std::uint64_t MaskDigest(const SideMasks& masks) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::vector<char>* side :
       {&masks.upper_alive, &masks.lower_alive}) {
    for (char alive : *side) {
      h ^= static_cast<unsigned char>(alive);
      h *= 1099511628211ull;
    }
  }
  return h;
}

struct GoldenMasks {
  const char* family;
  std::uint32_t alpha, beta;
  VertexId fcore_upper, fcore_lower;
  VertexId cfcore_upper, cfcore_lower;
  std::uint64_t cfcore_digest;
  VertexId bfcore_upper, bfcore_lower;
  VertexId bcfcore_upper, bcfcore_lower;
  std::uint64_t bcfcore_digest;
};

// Survivor counts and mask digests computed by the full-graph colorful
// phase (2-hop sweep over every wedge of the parent graph, uncompacted),
// before the reduction moved onto the compacted FCore/BFCore survivors.
// Every point prunes past its core in at least one of CFCore/BCFCore.
constexpr GoldenMasks kGoldenMasks[] = {
    {"uniform", 1, 2, 596, 600, 596, 600, 0x48f3454121f459a5ull, 596, 599, 59,
     239, 0xa61201d6563fb079ull},
    {"uniform", 2, 5, 483, 600, 427, 522, 0x25a960d7066e551eull, 477, 592, 0,
     0, 0xccab01a4440d43c3ull},
    {"powerlaw", 2, 2, 369, 567, 366, 555, 0x2f65c092cc10911eull, 345, 332,
     284, 263, 0x03308af47e0928d2ull},
    {"powerlaw", 4, 3, 247, 424, 225, 316, 0x207f1d7aee5563a2ull, 180, 121,
     121, 92, 0xa225e226df59bee0ull},
    {"affiliation", 2, 2, 556, 1117, 469, 741, 0x0be778bffa599e73ull, 450,
     432, 347, 302, 0xc4c67953983b0cfaull},
    {"affiliation", 4, 2, 471, 549, 420, 312, 0x24a1c6ea2825c437ull, 419, 311,
     267, 185, 0xd994136f4493cf87ull},
};

BipartiteGraph GoldenFamily(const std::string& family) {
  if (family == "uniform") return MakeUniformRandom(600, 600, 9000, 2, 101);
  if (family == "powerlaw") return MakePowerLaw(600, 600, 9000, 2.1, 2, 102);
  AffiliationConfig config;
  config.num_upper = 1500;
  config.num_lower = 1500;
  config.num_communities = 40;
  config.noise_fraction = 3.0;
  config.noise_attach_community = 0.6;
  config.seed = 103;
  return MakeAffiliation(config);
}

// Pins FCore -> CFCore and BFCore -> BCFCore to the masks the full-graph
// reduction produced, at every thread count: the compacted colorful phase
// must match the old masks, not only itself across thread counts.
TEST(PeelGoldenMasks, MatchFullGraphReduction) {
  for (const GoldenMasks& want : kGoldenMasks) {
    const BipartiteGraph g = GoldenFamily(want.family);
    const std::uint32_t a = want.alpha, b = want.beta;
    const std::string point = std::string(want.family) + " alpha=" +
                              std::to_string(a) + " beta=" + std::to_string(b);
    const SideMasks f = FCore(g, a, b);
    const SideMasks bf = BFCore(g, a, b);
    EXPECT_EQ(f.CountAlive(Side::kUpper), want.fcore_upper) << point;
    EXPECT_EQ(f.CountAlive(Side::kLower), want.fcore_lower) << point;
    EXPECT_EQ(bf.CountAlive(Side::kUpper), want.bfcore_upper) << point;
    EXPECT_EQ(bf.CountAlive(Side::kLower), want.bfcore_lower) << point;
    for (unsigned threads : {1u, 2u, 8u}) {
      ReductionContext ctx(threads);
      const std::string label = point + " threads=" + std::to_string(threads);
      const SideMasks cf = CFCore(g, a, b, &ctx).masks;
      EXPECT_EQ(cf.CountAlive(Side::kUpper), want.cfcore_upper) << label;
      EXPECT_EQ(cf.CountAlive(Side::kLower), want.cfcore_lower) << label;
      EXPECT_EQ(MaskDigest(cf), want.cfcore_digest) << label;
      const SideMasks bcf = BCFCore(g, a, b, &ctx).masks;
      EXPECT_EQ(bcf.CountAlive(Side::kUpper), want.bcfcore_upper) << label;
      EXPECT_EQ(bcf.CountAlive(Side::kLower), want.bcfcore_lower) << label;
      EXPECT_EQ(MaskDigest(bcf), want.bcfcore_digest) << label;
    }
  }
}

// Pruning runs inside the pipeline with the same thread count as the
// search; the full enumeration must stay equivalent now that both phases
// parallelize. The giant community graph funnels nearly the whole search
// into one root subtree, so with 8 workers the pool queue runs dry and
// the depth-adaptive splitter kicks in.
TEST(PeelParallelEquivalence, EnumerationOnGiantCommunity) {
  const BipartiteGraph g = SingleGiantCommunityGraph();
  const FairBicliqueParams params{2, 2, 1, 0.0};
  const std::tuple<const char*, FairModel, FairAlgo> engines[] = {
      {"SSFBC", FairModel::kSsfbc, FairAlgo::kBcem},
      {"SSFBC++", FairModel::kSsfbc, FairAlgo::kPlusPlus},
      {"BSFBC", FairModel::kBsfbc, FairAlgo::kBcem},
      {"BSFBC++", FairModel::kBsfbc, FairAlgo::kPlusPlus},
  };
  for (const auto& [name, model, algo] : engines) {
    CollectSink serial_sink;
    EnumStats serial_stats =
        RunEnumeration(g, model, algo, params, {}, serial_sink.AsSink());
    const std::vector<Biclique> serial = Canonicalize(serial_sink.results());
    for (unsigned threads : kThreadCounts) {
      EnumOptions options;
      options.num_threads = threads;
      CollectSink sink;
      EnumStats stats =
          RunEnumeration(g, model, algo, params, options, sink.AsSink());
      EXPECT_EQ(Canonicalize(sink.results()), serial)
          << name << " threads=" << threads;
      EXPECT_EQ(stats.num_results, serial_stats.num_results)
          << name << " threads=" << threads;
      EXPECT_EQ(stats.remaining_upper, serial_stats.remaining_upper)
          << name << " threads=" << threads;
      EXPECT_EQ(stats.remaining_lower, serial_stats.remaining_lower)
          << name << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace fairbc
