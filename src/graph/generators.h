#ifndef FAIRBC_GRAPH_GENERATORS_H_
#define FAIRBC_GRAPH_GENERATORS_H_

#include <cstdint>
#include <string>

#include "common/random.h"
#include "common/status.h"
#include "graph/bipartite_graph.h"

namespace fairbc {

/// Synthetic bipartite graph generators. These are the reproduction's
/// stand-in for the paper's five KONECT datasets (offline environment, see
/// DESIGN.md §4). All take explicit seeds and are fully deterministic.

/// Uniformly random bipartite graph with ~`num_edges` distinct edges and
/// uniformly random attributes from [0, num_attrs) on both sides.
BipartiteGraph MakeUniformRandom(VertexId num_upper, VertexId num_lower,
                                 EdgeIndex num_edges, AttrId num_attrs,
                                 std::uint64_t seed);

/// Chung–Lu style bipartite graph with power-law expected degrees
/// (exponent `gamma` on both sides), matching the heavy-tailed degree
/// shape of real affiliation networks.
BipartiteGraph MakePowerLaw(VertexId num_upper, VertexId num_lower,
                            EdgeIndex num_edges, double gamma, AttrId num_attrs,
                            std::uint64_t seed);

/// Parameters for the planted-affiliation generator.
struct AffiliationConfig {
  VertexId num_upper = 1000;
  VertexId num_lower = 1000;
  /// Number of planted communities (each a complete biclique block).
  std::uint32_t num_communities = 60;
  /// Community side sizes are uniform in [min,max]; overlapping vertices
  /// create intersecting bicliques, the structure maximal-biclique
  /// algorithms are sensitive to.
  VertexId community_upper_min = 4;
  VertexId community_upper_max = 16;
  VertexId community_lower_min = 4;
  VertexId community_lower_max = 16;
  /// Probability of keeping each community edge (1.0 = exact bicliques).
  double edge_keep_prob = 1.0;
  /// Extra noise edges as a fraction of community edges.
  double noise_fraction = 0.3;
  /// Probability that a noise endpoint attaches to a community member
  /// instead of a uniform vertex. Preferential attachment creates
  /// vertices that survive degree-based pruning (FCore) but fail the
  /// 2-hop clique test (CFCore), like the semi-popular vertices of real
  /// affiliation networks.
  double noise_attach_community = 0.6;
  AttrId num_upper_attrs = 2;
  AttrId num_lower_attrs = 2;
  std::uint64_t seed = 42;
};

/// Planted-affiliation graph: overlapping community bicliques plus noise.
/// This is the workload generator used for the paper-shaped experiments;
/// affiliation networks (IMDB, Youtube) are exactly this structure.
BipartiteGraph MakeAffiliation(const AffiliationConfig& config);

/// Keeps each edge independently with probability `fraction` (used by the
/// Fig. 7 scalability experiment: 20%–100% edge samples). Vertex counts
/// and attributes are preserved.
BipartiteGraph SampleEdges(const BipartiteGraph& g, double fraction,
                           std::uint64_t seed);

/// Largest vertex count per side a graph built from caller-supplied
/// counts or ids may have: `gen`'s num_upper/num_lower window and the
/// text readers' ids and declared counts (graph/io.h). Far above the
/// paper's datasets; larger graphs come in as snapshots, whose sizes the
/// file itself bounds.
inline constexpr std::int64_t kMaxSideVertices = 20'000'000;

/// Largest number of attribute classes per side a caller may ask a
/// generator or a random re-attribution for: `gen`'s num_attrs window
/// and fairbc_cli's --rand-attrs. AttrId is 16 bits wide.
inline constexpr std::int64_t kMaxAttrClasses = 1024;

/// A generator run as the `gen` front doors (fairbc_cli, the server's
/// line protocol) read it from their callers: the kind and its raw,
/// unchecked values. Values a kind does not use are still checked.
struct GraphSpec {
  std::string kind = "affiliation";  ///< uniform | powerlaw | affiliation
  std::int64_t num_upper = 1000;
  std::int64_t num_lower = 1000;
  std::int64_t num_edges = 5000;       ///< uniform, powerlaw.
  std::int64_t num_attrs = 2;          ///< attribute classes per side.
  std::int64_t num_communities = 60;   ///< affiliation.
  double gamma = 2.2;                  ///< powerlaw degree exponent.
  std::uint64_t seed = 42;
};

/// Checks `spec` against the windows the front doors accept (num_upper
/// and num_lower in [1, 2e7], num_edges in [0, 2e8], num_attrs in
/// [1, 1024], num_communities in [1, 1e6], gamma in (1, 10]) and a known
/// kind, then runs its generator. Out-of-range values are an
/// InvalidArgument naming the first one, before anything is allocated —
/// the generators themselves abort on bad parameters.
Result<BipartiteGraph> GenerateGraph(const GraphSpec& spec);

}  // namespace fairbc

#endif  // FAIRBC_GRAPH_GENERATORS_H_
