#ifndef FAIRBC_TESTS_TEST_UTIL_H_
#define FAIRBC_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <vector>

#include "core/enumerate.h"
#include "core/pipeline.h"
#include "graph/bipartite_graph.h"

namespace fairbc::testing {

/// Builds a small attributed bipartite graph from explicit pieces.
BipartiteGraph MakeGraph(VertexId num_upper, VertexId num_lower,
                         const std::vector<std::pair<VertexId, VertexId>>& edges,
                         const std::vector<AttrId>& upper_attrs,
                         const std::vector<AttrId>& lower_attrs,
                         AttrId num_upper_attrs = 2, AttrId num_lower_attrs = 2);

/// Random small graph for property tests: sides in [2, max_side], edge
/// probability `density`, attributes uniform over 2 classes per side.
BipartiteGraph RandomSmallGraph(std::uint64_t seed, VertexId max_side,
                                double density, AttrId num_attrs = 2);

/// The paper's Fig. 1(a) example graph: squares u1..u5 (upper, attrs
/// a/b), circles v1..v9 (lower, attrs a/b). Our ids are zero-based.
BipartiteGraph PaperExampleGraph();

/// Canonical sorted copy for set comparison.
std::vector<Biclique> Canonicalize(std::vector<Biclique> bicliques);

/// Runs RunEnumeration and returns canonicalized results.
std::vector<Biclique> Collect(const BipartiteGraph& g, FairModel model,
                              FairAlgo algo, const FairBicliqueParams& params,
                              const EnumOptions& options = {});

}  // namespace fairbc::testing

#endif  // FAIRBC_TESTS_TEST_UTIL_H_
