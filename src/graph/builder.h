#ifndef FAIRBC_GRAPH_BUILDER_H_
#define FAIRBC_GRAPH_BUILDER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "graph/bipartite_graph.h"

namespace fairbc {

/// Incremental edge-list builder producing a validated BipartiteGraph.
/// Duplicate edges are deduplicated; vertex counts may be given up front
/// or grown implicitly by the largest id seen.
class BipartiteGraphBuilder {
 public:
  BipartiteGraphBuilder() = default;
  BipartiteGraphBuilder(VertexId num_upper, VertexId num_lower)
      : num_upper_(num_upper), num_lower_(num_lower) {}

  void AddEdge(VertexId u, VertexId v);

  /// Sets the attribute of a single vertex. Unset vertices default to 0.
  void SetAttr(Side side, VertexId v, AttrId a);

  /// Sets the whole attribute vector for one side (size must match the
  /// final vertex count at Build time).
  void SetAttrs(Side side, std::vector<AttrId> attrs);

  /// Declares the attribute domain size for a side (default 1).
  void SetNumAttrs(Side side, AttrId n);

  /// Assigns uniformly random attributes in [0, n) to every vertex of
  /// `side`, mirroring the paper's "randomly assign an attribute to each
  /// vertex" preprocessing for the non-attributed KONECT datasets.
  void AssignRandomAttrs(Side side, AttrId n, Rng& rng);

  VertexId num_upper() const { return num_upper_; }
  VertexId num_lower() const { return num_lower_; }

  /// Sorts, dedupes, builds both CSR directions and validates attributes.
  Result<BipartiteGraph> Build();

 private:
  VertexId num_upper_ = 0;
  VertexId num_lower_ = 0;
  AttrId num_upper_attrs_ = 1;
  AttrId num_lower_attrs_ = 1;
  std::vector<std::pair<VertexId, VertexId>> edges_;
  std::vector<std::pair<VertexId, AttrId>> upper_attr_updates_;
  std::vector<std::pair<VertexId, AttrId>> lower_attr_updates_;
  std::vector<AttrId> upper_attrs_full_;
  std::vector<AttrId> lower_attrs_full_;
  bool has_upper_full_ = false;
  bool has_lower_full_ = false;
};

}  // namespace fairbc

#endif  // FAIRBC_GRAPH_BUILDER_H_
