#include "core/search_context.h"

#include <algorithm>
#include <cstring>

namespace fairbc {

std::vector<VertexId> SubtreeBatch::ExclusionFor(std::size_t i) const {
  std::vector<VertexId> exclusion;
  exclusion.reserve(q.size() + i);
  exclusion.insert(exclusion.end(), q.begin(), q.end());
  exclusion.insert(exclusion.end(), p.begin(), p.begin() + i);
  return exclusion;
}

void FilterCandidates(const BipartiteGraph& g, Side side,
                      std::span<const VertexId> candidates,
                      std::span<const VertexId> big_l,
                      const BitsetView& big_l_bits,
                      std::uint32_t keep_threshold, IdVec* kept, IdVec* full,
                      KernelStats* stats) {
  for (VertexId v : candidates) {
    std::uint32_t c = big_l_bits.CountHits(g.Neighbors(side, v), stats);
    if (c == big_l.size()) full->push_back(v);
    if (c >= keep_threshold) kept->push_back(v);
  }
}

std::vector<VertexId> AllVertices(const BipartiteGraph& g, Side side) {
  std::vector<VertexId> all(g.NumVertices(side));
  for (VertexId v = 0; v < all.size(); ++v) all[v] = v;
  return all;
}

PrefixFold::PrefixFold(const BipartiteGraph& g, Side side,
                       std::size_t max_depth, std::size_t fixed_size,
                       ScratchArena& arena)
    : g_(g),
      side_(side),
      max_depth_(max_depth),
      fixed_size_(fixed_size),
      arena_(arena) {
  sorted_ = arena.AllocU32(max_depth);
  levels_ = arena.AllocArray<std::span<const VertexId>>(max_depth + 1);
  buffers_ = arena.AllocArray<VertexId*>(max_depth + 1);
  levels_[0] = {};
  mark_ = arena.Save();
}

void PrefixFold::Push(VertexId v) {
  // Keep the prefix ascending: shift the larger tail up by one.
  VertexId* pos = std::upper_bound(sorted_, sorted_ + depth_, v);
  std::memmove(pos + 1, pos, (sorted_ + depth_ - pos) * sizeof(VertexId));
  *pos = v;
  ++depth_;

  const std::span<const VertexId> nbrs = g_.Neighbors(side_, v);
  if (depth_ == 1) {
    arena_.Rewind(mark_);
    std::fill(buffers_, buffers_ + max_depth_ + 1, nullptr);
    levels_[1] = nbrs;
    return;
  }
  const std::span<const VertexId> parent = levels_[depth_ - 1];
  if (parent.size() == fixed_size_) {
    levels_[depth_] = parent;
    return;
  }
  VertexId*& buffer = buffers_[depth_];
  if (buffer == nullptr) buffer = arena_.AllocU32(levels_[1].size());
  levels_[depth_] = {buffer, IntersectInto(buffer, parent, nbrs, &arena_)};
}

void PrefixFold::Pop(VertexId v) {
  VertexId* pos = std::lower_bound(sorted_, sorted_ + depth_, v);
  std::memmove(pos, pos + 1, (sorted_ + depth_ - pos - 1) * sizeof(VertexId));
  --depth_;
}

}  // namespace fairbc
