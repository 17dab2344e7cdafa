#include "recsys/cf.h"

#include <algorithm>
#include <cmath>

#include "common/status.h"
#include "core/kernels.h"
#include "graph/builder.h"

namespace fairbc {

ItemBasedCF::ItemBasedCF(const BipartiteGraph& interactions)
    : graph_(interactions), num_items_(interactions.NumLower()) {
  // Packed strict upper triangle: pairs (a, b) with a < b.
  const std::size_t pairs =
      static_cast<std::size_t>(num_items_) * (num_items_ - 1) / 2;
  sim_.assign(pairs, 0.0f);
  ScratchArena arena;  // lets the O(n^2) pair scan use the bitset kernel.
  for (VertexId a = 0; a < num_items_; ++a) {
    auto na = graph_.Neighbors(Side::kLower, a);
    if (na.empty()) continue;
    for (VertexId b = a + 1; b < num_items_; ++b) {
      auto nb = graph_.Neighbors(Side::kLower, b);
      if (nb.empty()) continue;
      std::uint32_t common = IntersectSize(na, nb, &arena);
      if (common == 0) continue;
      double denom = std::sqrt(static_cast<double>(na.size()) *
                               static_cast<double>(nb.size()));
      sim_[PackedIndex(a, b)] = static_cast<float>(common / denom);
    }
  }
}

std::size_t ItemBasedCF::PackedIndex(VertexId a, VertexId b) const {
  FAIRBC_CHECK(a < b && b < num_items_);
  // Row `a` starts after sum_{i<a} (n-1-i) entries.
  std::size_t row_start = static_cast<std::size_t>(a) * (num_items_ - 1) -
                          static_cast<std::size_t>(a) * (a - 1) / 2;
  return row_start + (b - a - 1);
}

double ItemBasedCF::Similarity(VertexId item_a, VertexId item_b) const {
  if (item_a == item_b) return 1.0;
  if (item_a > item_b) std::swap(item_a, item_b);
  return sim_[PackedIndex(item_a, item_b)];
}

std::vector<VertexId> ItemBasedCF::TopK(VertexId user, std::uint32_t k) const {
  auto owned = graph_.Neighbors(Side::kUpper, user);
  std::vector<double> score(num_items_, 0.0);
  for (VertexId mine : owned) {
    for (VertexId item = 0; item < num_items_; ++item) {
      if (item == mine) continue;
      score[item] += Similarity(mine, item);
    }
  }
  for (VertexId mine : owned) score[mine] = -1.0;  // exclude owned items.

  std::vector<VertexId> order(num_items_);
  for (VertexId i = 0; i < num_items_; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return score[a] > score[b];
  });
  std::vector<VertexId> top;
  for (VertexId item : order) {
    if (top.size() >= k) break;
    if (score[item] <= 0.0) break;  // no positive evidence left.
    top.push_back(item);
  }
  return top;
}

BipartiteGraph BuildRecommendationGraph(const BipartiteGraph& interactions,
                                        const ItemBasedCF& cf,
                                        std::uint32_t top_k) {
  BipartiteGraphBuilder builder(interactions.NumUpper(),
                                interactions.NumLower());
  builder.SetNumAttrs(Side::kUpper, interactions.NumAttrs(Side::kUpper));
  builder.SetNumAttrs(Side::kLower, interactions.NumAttrs(Side::kLower));
  std::vector<AttrId> up(interactions.NumUpper());
  std::vector<AttrId> lo(interactions.NumLower());
  for (VertexId u = 0; u < interactions.NumUpper(); ++u) {
    up[u] = interactions.Attr(Side::kUpper, u);
  }
  for (VertexId v = 0; v < interactions.NumLower(); ++v) {
    lo[v] = interactions.Attr(Side::kLower, v);
  }
  builder.SetAttrs(Side::kUpper, std::move(up));
  builder.SetAttrs(Side::kLower, std::move(lo));
  for (VertexId user = 0; user < interactions.NumUpper(); ++user) {
    for (VertexId item : cf.TopK(user, top_k)) {
      builder.AddEdge(user, item);
    }
  }
  auto result = builder.Build();
  FAIRBC_CHECK(result.ok());
  return std::move(result).value();
}

}  // namespace fairbc
