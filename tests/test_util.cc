#include "test_util.h"

#include <algorithm>

#include "common/random.h"
#include "common/status.h"
#include "graph/builder.h"

namespace fairbc::testing {

BipartiteGraph MakeGraph(VertexId num_upper, VertexId num_lower,
                         const std::vector<std::pair<VertexId, VertexId>>& edges,
                         const std::vector<AttrId>& upper_attrs,
                         const std::vector<AttrId>& lower_attrs,
                         AttrId num_upper_attrs, AttrId num_lower_attrs) {
  BipartiteGraphBuilder builder(num_upper, num_lower);
  builder.SetNumAttrs(Side::kUpper, num_upper_attrs);
  builder.SetNumAttrs(Side::kLower, num_lower_attrs);
  builder.SetAttrs(Side::kUpper, upper_attrs);
  builder.SetAttrs(Side::kLower, lower_attrs);
  for (auto [u, v] : edges) builder.AddEdge(u, v);
  auto result = builder.Build();
  FAIRBC_CHECK(result.ok());
  return std::move(result).value();
}

BipartiteGraph RandomSmallGraph(std::uint64_t seed, VertexId max_side,
                                double density, AttrId num_attrs) {
  Rng rng(seed);
  auto nu = static_cast<VertexId>(rng.NextInt(2, max_side));
  auto nv = static_cast<VertexId>(rng.NextInt(2, max_side));
  BipartiteGraphBuilder builder(nu, nv);
  builder.SetNumAttrs(Side::kUpper, num_attrs);
  builder.SetNumAttrs(Side::kLower, num_attrs);
  for (VertexId u = 0; u < nu; ++u) {
    for (VertexId v = 0; v < nv; ++v) {
      if (rng.NextBool(density)) builder.AddEdge(u, v);
    }
  }
  builder.AssignRandomAttrs(Side::kUpper, num_attrs, rng);
  builder.AssignRandomAttrs(Side::kLower, num_attrs, rng);
  auto result = builder.Build();
  FAIRBC_CHECK(result.ok());
  return std::move(result).value();
}

BipartiteGraph PaperExampleGraph() {
  // Hand-built graph in the spirit of the paper's Fig. 1(a): 5 upper
  // vertices (squares), 9 lower vertices (circles), two attribute values
  // per side, and a planted biclique {u2, u3} x {v1, v3, v5, v8} that is
  // single-side fair for alpha=1, beta=2, delta=1.
  std::vector<std::pair<VertexId, VertexId>> edges = {
      {0, 0}, {0, 1}, {0, 2}, {1, 2}, {1, 3}, {1, 4},
      {2, 1}, {2, 3}, {2, 5}, {2, 8}, {2, 6},
      {3, 1}, {3, 3}, {3, 5}, {3, 8}, {3, 0},
      {4, 5}, {4, 6}, {4, 7}, {4, 8},
  };
  return MakeGraph(5, 9, edges,
                   /*upper_attrs=*/{0, 1, 0, 1, 0},
                   /*lower_attrs=*/{0, 0, 1, 1, 0, 0, 1, 0, 1});
}

std::vector<Biclique> Canonicalize(std::vector<Biclique> bicliques) {
  for (auto& b : bicliques) {
    std::sort(b.upper.begin(), b.upper.end());
    std::sort(b.lower.begin(), b.lower.end());
  }
  std::sort(bicliques.begin(), bicliques.end());
  return bicliques;
}

std::vector<Biclique> Collect(const BipartiteGraph& g, FairModel model,
                              FairAlgo algo, const FairBicliqueParams& params,
                              const EnumOptions& options) {
  CollectSink sink;
  RunEnumeration(g, model, algo, params, options, sink.AsSink());
  return Canonicalize(sink.results());
}

}  // namespace fairbc::testing
