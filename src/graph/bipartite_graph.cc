#include "graph/bipartite_graph.h"

#include <algorithm>
#include <sstream>

namespace fairbc {

BipartiteGraph::BipartiteGraph() { BindOwned(); }

BipartiteGraph::BipartiteGraph(std::vector<EdgeIndex> upper_offsets,
                               std::vector<VertexId> upper_neighbors,
                               std::vector<EdgeIndex> lower_offsets,
                               std::vector<VertexId> lower_neighbors,
                               std::vector<AttrId> upper_attrs,
                               std::vector<AttrId> lower_attrs,
                               AttrId num_upper_attrs, AttrId num_lower_attrs)
    : num_upper_(static_cast<VertexId>(upper_offsets.size() - 1)),
      num_lower_(static_cast<VertexId>(lower_offsets.size() - 1)),
      num_edges_(upper_neighbors.size()),
      num_upper_attrs_(num_upper_attrs),
      num_lower_attrs_(num_lower_attrs),
      upper_offsets_(std::move(upper_offsets)),
      upper_neighbors_(std::move(upper_neighbors)),
      lower_offsets_(std::move(lower_offsets)),
      lower_neighbors_(std::move(lower_neighbors)),
      upper_attrs_(std::move(upper_attrs)),
      lower_attrs_(std::move(lower_attrs)) {
  FAIRBC_CHECK(upper_attrs_.size() == num_upper_);
  FAIRBC_CHECK(lower_attrs_.size() == num_lower_);
  FAIRBC_CHECK(lower_neighbors_.size() == num_edges_);
  BindOwned();
}

BipartiteGraph BipartiteGraph::MakeView(
    std::span<const EdgeIndex> upper_offsets,
    std::span<const VertexId> upper_neighbors,
    std::span<const EdgeIndex> lower_offsets,
    std::span<const VertexId> lower_neighbors,
    std::span<const AttrId> upper_attrs, std::span<const AttrId> lower_attrs,
    AttrId num_upper_attrs, AttrId num_lower_attrs,
    std::shared_ptr<const void> backing) {
  FAIRBC_CHECK(!upper_offsets.empty() && !lower_offsets.empty());
  FAIRBC_CHECK(upper_attrs.size() == upper_offsets.size() - 1);
  FAIRBC_CHECK(lower_attrs.size() == lower_offsets.size() - 1);
  FAIRBC_CHECK(lower_neighbors.size() == upper_neighbors.size());
  FAIRBC_CHECK(backing != nullptr);
  BipartiteGraph g;
  g.num_upper_ = static_cast<VertexId>(upper_offsets.size() - 1);
  g.num_lower_ = static_cast<VertexId>(lower_offsets.size() - 1);
  g.num_edges_ = upper_neighbors.size();
  g.num_upper_attrs_ = num_upper_attrs;
  g.num_lower_attrs_ = num_lower_attrs;
  g.upper_offsets_v_ = upper_offsets;
  g.upper_neighbors_v_ = upper_neighbors;
  g.lower_offsets_v_ = lower_offsets;
  g.lower_neighbors_v_ = lower_neighbors;
  g.upper_attrs_v_ = upper_attrs;
  g.lower_attrs_v_ = lower_attrs;
  g.backing_ = std::move(backing);
  return g;
}

void BipartiteGraph::BindOwned() {
  // The empty state binds the offset views to this static zero entry, so
  // default construction and ResetToEmpty never allocate — which is what
  // lets the move operations be genuinely noexcept.
  static constexpr EdgeIndex kEmptyOffsets[1] = {0};
  upper_offsets_v_ = upper_offsets_.empty()
                         ? std::span<const EdgeIndex>(kEmptyOffsets, 1)
                         : std::span<const EdgeIndex>(upper_offsets_.data(),
                                                      upper_offsets_.size());
  lower_offsets_v_ = lower_offsets_.empty()
                         ? std::span<const EdgeIndex>(kEmptyOffsets, 1)
                         : std::span<const EdgeIndex>(lower_offsets_.data(),
                                                      lower_offsets_.size());
  upper_neighbors_v_ = {upper_neighbors_.data(), upper_neighbors_.size()};
  lower_neighbors_v_ = {lower_neighbors_.data(), lower_neighbors_.size()};
  upper_attrs_v_ = {upper_attrs_.data(), upper_attrs_.size()};
  lower_attrs_v_ = {lower_attrs_.data(), lower_attrs_.size()};
}

void BipartiteGraph::ResetToEmpty() {
  num_upper_ = num_lower_ = 0;
  num_edges_ = 0;
  num_upper_attrs_ = num_lower_attrs_ = 1;
  upper_offsets_.clear();
  upper_neighbors_.clear();
  lower_offsets_.clear();
  lower_neighbors_.clear();
  upper_attrs_.clear();
  lower_attrs_.clear();
  backing_.reset();
  BindOwned();
}

void BipartiteGraph::MoveFrom(BipartiteGraph& other) {
  num_upper_ = other.num_upper_;
  num_lower_ = other.num_lower_;
  num_edges_ = other.num_edges_;
  num_upper_attrs_ = other.num_upper_attrs_;
  num_lower_attrs_ = other.num_lower_attrs_;
  upper_offsets_ = std::move(other.upper_offsets_);
  upper_neighbors_ = std::move(other.upper_neighbors_);
  lower_offsets_ = std::move(other.lower_offsets_);
  lower_neighbors_ = std::move(other.lower_neighbors_);
  upper_attrs_ = std::move(other.upper_attrs_);
  lower_attrs_ = std::move(other.lower_attrs_);
  backing_ = std::move(other.backing_);
  if (backing_ != nullptr) {
    // View: the spans point into the backing, which we now hold.
    upper_offsets_v_ = other.upper_offsets_v_;
    upper_neighbors_v_ = other.upper_neighbors_v_;
    lower_offsets_v_ = other.lower_offsets_v_;
    lower_neighbors_v_ = other.lower_neighbors_v_;
    upper_attrs_v_ = other.upper_attrs_v_;
    lower_attrs_v_ = other.lower_attrs_v_;
  } else {
    // Owned: vector moves keep the heap buffers, rebinding is exact.
    BindOwned();
  }
  other.ResetToEmpty();
}

BipartiteGraph::BipartiteGraph(const BipartiteGraph& other)
    : num_upper_(other.num_upper_),
      num_lower_(other.num_lower_),
      num_edges_(other.num_edges_),
      num_upper_attrs_(other.num_upper_attrs_),
      num_lower_attrs_(other.num_lower_attrs_),
      upper_offsets_(other.upper_offsets_),
      upper_neighbors_(other.upper_neighbors_),
      lower_offsets_(other.lower_offsets_),
      lower_neighbors_(other.lower_neighbors_),
      upper_attrs_(other.upper_attrs_),
      lower_attrs_(other.lower_attrs_),
      backing_(other.backing_) {
  if (backing_ != nullptr) {
    // Copying a view shares the backing; the arrays are immutable.
    upper_offsets_v_ = other.upper_offsets_v_;
    upper_neighbors_v_ = other.upper_neighbors_v_;
    lower_offsets_v_ = other.lower_offsets_v_;
    lower_neighbors_v_ = other.lower_neighbors_v_;
    upper_attrs_v_ = other.upper_attrs_v_;
    lower_attrs_v_ = other.lower_attrs_v_;
  } else {
    BindOwned();
  }
}

BipartiteGraph& BipartiteGraph::operator=(const BipartiteGraph& other) {
  if (this != &other) {
    BipartiteGraph tmp(other);
    MoveFrom(tmp);
  }
  return *this;
}

BipartiteGraph::BipartiteGraph(BipartiteGraph&& other) noexcept {
  MoveFrom(other);
}

BipartiteGraph& BipartiteGraph::operator=(BipartiteGraph&& other) noexcept {
  if (this != &other) MoveFrom(other);
  return *this;
}

bool BipartiteGraph::HasEdge(VertexId u, VertexId v) const {
  auto nbrs = Neighbors(Side::kUpper, u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<VertexId> BipartiteGraph::AttrCounts(Side side) const {
  std::vector<VertexId> counts(NumAttrs(side), 0);
  for (AttrId a : AttrArray(side)) ++counts[a];
  return counts;
}

double BipartiteGraph::Density() const {
  if (num_upper_ == 0 || num_lower_ == 0) return 0.0;
  return static_cast<double>(num_edges_) /
         (static_cast<double>(num_upper_) * static_cast<double>(num_lower_));
}

std::size_t BipartiteGraph::MemoryBytes() const {
  // For a view this is the mapped CSR footprint, not heap usage.
  return upper_offsets_v_.size() * sizeof(EdgeIndex) +
         lower_offsets_v_.size() * sizeof(EdgeIndex) +
         upper_neighbors_v_.size() * sizeof(VertexId) +
         lower_neighbors_v_.size() * sizeof(VertexId) +
         upper_attrs_v_.size() * sizeof(AttrId) +
         lower_attrs_v_.size() * sizeof(AttrId);
}

Status BipartiteGraph::Validate() const {
  auto check_side = [&](Side side, VertexId n, VertexId other_n,
                        std::span<const EdgeIndex> off,
                        std::span<const VertexId> nbr) -> Status {
    if (off.size() != static_cast<std::size_t>(n) + 1) {
      return Status::CorruptInput("offset array size mismatch");
    }
    if (off.front() != 0 || off.back() != nbr.size()) {
      return Status::CorruptInput("offset endpoints mismatch");
    }
    for (VertexId v = 0; v < n; ++v) {
      if (off[v] > off[v + 1]) {
        return Status::CorruptInput("offsets not monotone");
      }
      for (EdgeIndex i = off[v]; i + 1 < off[v + 1]; ++i) {
        if (nbr[i] >= nbr[i + 1]) {
          return Status::CorruptInput("neighbors not sorted/deduped on " +
                                      std::string(ToString(side)));
        }
      }
      for (EdgeIndex i = off[v]; i < off[v + 1]; ++i) {
        if (nbr[i] >= other_n) {
          return Status::CorruptInput("neighbor id out of range");
        }
      }
    }
    return Status::OK();
  };
  FAIRBC_RETURN_IF_ERROR(check_side(Side::kUpper, num_upper_, num_lower_,
                                    upper_offsets_v_, upper_neighbors_v_));
  FAIRBC_RETURN_IF_ERROR(check_side(Side::kLower, num_lower_, num_upper_,
                                    lower_offsets_v_, lower_neighbors_v_));
  if (upper_neighbors_v_.size() != lower_neighbors_v_.size()) {
    return Status::CorruptInput("CSR directions disagree on edge count");
  }
  // Cross-check both directions describe the same edge set.
  for (VertexId u = 0; u < num_upper_; ++u) {
    for (VertexId v : Neighbors(Side::kUpper, u)) {
      auto back = Neighbors(Side::kLower, v);
      if (!std::binary_search(back.begin(), back.end(), u)) {
        return Status::CorruptInput("edge present only in one direction");
      }
    }
  }
  for (VertexId u = 0; u < num_upper_; ++u) {
    if (upper_attrs_v_[u] >= num_upper_attrs_) {
      return Status::CorruptInput("upper attribute out of domain");
    }
  }
  for (VertexId v = 0; v < num_lower_; ++v) {
    if (lower_attrs_v_[v] >= num_lower_attrs_) {
      return Status::CorruptInput("lower attribute out of domain");
    }
  }
  return Status::OK();
}

std::string BipartiteGraph::DebugString() const {
  std::ostringstream os;
  os << "BipartiteGraph(|U|=" << num_upper_ << ", |V|=" << num_lower_
     << ", |E|=" << num_edges_ << ", A_U=" << num_upper_attrs_
     << ", A_V=" << num_lower_attrs_ << ", density=" << Density() << ")";
  return os.str();
}

VertexId SideMasks::CountAlive(Side side) const {
  const auto& m = side == Side::kUpper ? upper_alive : lower_alive;
  VertexId n = 0;
  for (char c : m) n += (c != 0);
  return n;
}

BipartiteGraph InducedSubgraph(const BipartiteGraph& g, const SideMasks& masks,
                               IdMaps* id_maps) {
  FAIRBC_CHECK(masks.upper_alive.size() == g.NumUpper());
  FAIRBC_CHECK(masks.lower_alive.size() == g.NumLower());
  std::vector<VertexId> upper_new(g.NumUpper(), kInvalidVertex);
  std::vector<VertexId> lower_new(g.NumLower(), kInvalidVertex);
  IdMaps maps;
  for (VertexId u = 0; u < g.NumUpper(); ++u) {
    if (masks.upper_alive[u]) {
      upper_new[u] = static_cast<VertexId>(maps.upper_to_parent.size());
      maps.upper_to_parent.push_back(u);
    }
  }
  for (VertexId v = 0; v < g.NumLower(); ++v) {
    if (masks.lower_alive[v]) {
      lower_new[v] = static_cast<VertexId>(maps.lower_to_parent.size());
      maps.lower_to_parent.push_back(v);
    }
  }

  auto build_dir = [&](Side side, const std::vector<VertexId>& to_parent,
                       const std::vector<VertexId>& other_new,
                       const std::vector<char>& other_alive,
                       std::vector<EdgeIndex>& offsets,
                       std::vector<VertexId>& neighbors) {
    // Both passes are branch-free: whether a parent neighbor survived is
    // close to a coin flip on reduced graphs, so a branch mispredicts.
    offsets.assign(to_parent.size() + 1, 0);
    for (std::size_t i = 0; i < to_parent.size(); ++i) {
      EdgeIndex degree = 0;
      for (VertexId w : g.Neighbors(side, to_parent[i])) {
        degree += other_alive[w] != 0;
      }
      offsets[i + 1] = offsets[i] + degree;
    }
    // Every neighbor is written and the cursor advances past survivors
    // only; a dead neighbor's write lands on the next slot, which a later
    // survivor (or, after the last vertex, the one slack slot) overwrites.
    neighbors.resize(offsets.back() + 1);
    for (std::size_t i = 0; i < to_parent.size(); ++i) {
      EdgeIndex pos = offsets[i];
      for (VertexId w : g.Neighbors(side, to_parent[i])) {
        neighbors[pos] = other_new[w];
        pos += other_alive[w] != 0;
      }
      // Parent lists are sorted and compaction is order-preserving, so the
      // result stays sorted.
    }
    neighbors.pop_back();
  };

  std::vector<EdgeIndex> up_off, lo_off;
  std::vector<VertexId> up_nbr, lo_nbr;
  build_dir(Side::kUpper, maps.upper_to_parent, lower_new, masks.lower_alive,
            up_off, up_nbr);
  build_dir(Side::kLower, maps.lower_to_parent, upper_new, masks.upper_alive,
            lo_off, lo_nbr);

  std::vector<AttrId> up_attrs(maps.upper_to_parent.size());
  std::vector<AttrId> lo_attrs(maps.lower_to_parent.size());
  for (std::size_t i = 0; i < maps.upper_to_parent.size(); ++i) {
    up_attrs[i] = g.Attr(Side::kUpper, maps.upper_to_parent[i]);
  }
  for (std::size_t i = 0; i < maps.lower_to_parent.size(); ++i) {
    lo_attrs[i] = g.Attr(Side::kLower, maps.lower_to_parent[i]);
  }

  if (id_maps != nullptr) *id_maps = std::move(maps);
  return BipartiteGraph(std::move(up_off), std::move(up_nbr), std::move(lo_off),
                        std::move(lo_nbr), std::move(up_attrs),
                        std::move(lo_attrs), g.NumAttrs(Side::kUpper),
                        g.NumAttrs(Side::kLower));
}

}  // namespace fairbc
