#include "core/two_hop_graph.h"

#include <algorithm>

#include "common/status.h"
#include "core/reduction_context.h"

namespace fairbc {

namespace {

/// Half-wedge counter sweep over one contiguous vertex shard `[begin,
/// end)`: for every alive `v` in the shard, count the alive 2-hop paths to
/// alive `w < v` only (per opposite-attribute class when `per_attr`), then
/// append the sorted satisfying lower neighbors to `out` and record
/// `lower_deg[v]`. Neighbor lists are sorted, so each walk over `N(u)`
/// stops at the first `w >= v`; every pair is therefore counted once, from
/// its higher endpoint. First touches are tracked with one flag byte per
/// vertex, and both scratch arrays are returned all-zero.
void SweepShard(const BipartiteGraph& g, Side fair_side, std::uint32_t alpha,
                const std::vector<char>& fair_alive,
                const std::vector<char>& other_alive, bool per_attr,
                VertexId begin, VertexId end,
                std::vector<std::uint32_t>& counts, std::vector<char>& touched_flag,
                std::vector<VertexId>& out,
                std::vector<std::uint32_t>& lower_deg) {
  const Side other = Opposite(fair_side);
  const std::size_t stride = per_attr ? g.NumAttrs(other) : 1;
  std::vector<VertexId> touched;
  // `v` can touch every lower vertex; sizing up front keeps the inner loop
  // free of growth reallocations (the other scratch arrays are O(n) too).
  touched.reserve(touched_flag.size());

  for (VertexId v = begin; v < end; ++v) {
    if (!fair_alive[v]) continue;
    touched.clear();
    for (VertexId u : g.Neighbors(fair_side, v)) {
      if (!other_alive[u]) continue;
      const std::size_t attr_off = per_attr ? g.Attr(other, u) : 0;
      for (VertexId w : g.Neighbors(other, u)) {
        if (w >= v) break;
        if (!fair_alive[w]) continue;
        if (!touched_flag[w]) {
          touched_flag[w] = 1;
          touched.push_back(w);
        }
        ++counts[static_cast<std::size_t>(w) * stride + attr_off];
      }
    }
    const std::size_t out_begin = out.size();
    for (VertexId w : touched) {
      bool connect;
      if (!per_attr) {
        connect = counts[w] >= alpha;
      } else {
        connect = true;
        for (std::size_t a = 0; a < stride; ++a) {
          if (counts[static_cast<std::size_t>(w) * stride + a] < alpha) {
            connect = false;
            break;
          }
        }
      }
      if (connect) out.push_back(w);
      for (std::size_t a = 0; a < stride; ++a) {
        counts[static_cast<std::size_t>(w) * stride + a] = 0;
      }
      touched_flag[w] = 0;
    }
    std::sort(out.begin() + out_begin, out.end());
    lower_deg[v] = static_cast<std::uint32_t>(out.size() - out_begin);
  }
}

UnipartiteGraph ConstructImpl(const BipartiteGraph& g, Side fair_side,
                              std::uint32_t alpha, const SideMasks& masks,
                              bool per_attr, ReductionContext* ctx) {
  const Side other = Opposite(fair_side);
  const VertexId n = g.NumVertices(fair_side);
  const auto& fair_alive =
      fair_side == Side::kLower ? masks.lower_alive : masks.upper_alive;
  const auto& other_alive =
      fair_side == Side::kLower ? masks.upper_alive : masks.lower_alive;
  FAIRBC_CHECK(fair_alive.size() == n);

  UnipartiteGraph h;
  h.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  h.attrs.resize(n);
  h.num_attrs = g.NumAttrs(fair_side);
  for (VertexId v = 0; v < n; ++v) h.attrs[v] = g.Attr(fair_side, v);
  if (n == 0) return h;

  const std::size_t stride = per_attr ? g.NumAttrs(other) : 1;
  const std::size_t counts_size = static_cast<std::size_t>(n) * stride;

  // A null context runs the same code path through a local serial
  // context, so the scratch grow-and-zero contract lives in one place.
  ReductionContext serial_ctx;
  if (ctx == nullptr) ctx = &serial_ctx;

  // Shard plan: contiguous vertex ranges, several shards per lane so the
  // lanes can rebalance skewed work (higher ids see more lower
  // neighbors). The shard boundaries do not affect the output — each
  // vertex's lower list is a pure function of (g, masks, alpha) — so the
  // serial path is simply the same shards swept in order by lane 0.
  const unsigned workers = ctx->num_lanes();
  const VertexId shard_size = std::max<VertexId>(
      64, (n + workers * 8 - 1) / (workers * 8));
  const std::size_t num_shards = (n + shard_size - 1) / shard_size;

  std::vector<std::uint32_t> lower_deg(n, 0);
  std::vector<std::vector<VertexId>> shard_lower(num_shards);

  auto sweep_one = [&](std::size_t shard, unsigned worker) {
    std::vector<std::uint32_t>& counts = ctx->CountScratch(worker, counts_size);
    std::vector<char>& flags = ctx->FlagScratch(worker, n);
    const VertexId begin = static_cast<VertexId>(shard * shard_size);
    const VertexId end = std::min<VertexId>(n, begin + shard_size);
    SweepShard(g, fair_side, alpha, fair_alive, other_alive, per_attr, begin,
               end, counts, flags, shard_lower[shard], lower_deg);
  };
  if (ctx->parallel()) {
    ctx->ParallelFor(num_shards, sweep_one);
  } else {
    for (std::size_t shard = 0; shard < num_shards; ++shard) {
      sweep_one(shard, 0);
    }
  }

  // Mirror pass, serial and O(|E_H|): vertex x's list is its sorted lower
  // neighbors followed by every higher v that listed x. Visiting v in
  // ascending order appends those higher neighbors already sorted.
  // `cursor[x]` first counts x's higher neighbors, then becomes the write
  // position of the next one.
  std::vector<EdgeIndex> cursor(n, 0);
  for (const std::vector<VertexId>& lower : shard_lower) {
    for (VertexId w : lower) ++cursor[w];
  }
  for (VertexId v = 0; v < n; ++v) {
    h.offsets[v + 1] = h.offsets[v] + lower_deg[v] + cursor[v];
    cursor[v] = h.offsets[v] + lower_deg[v];
  }
  h.neighbors.resize(h.offsets[n]);
  for (std::size_t shard = 0; shard < num_shards; ++shard) {
    const VertexId* next = shard_lower[shard].data();
    const VertexId begin = static_cast<VertexId>(shard * shard_size);
    const VertexId end = std::min<VertexId>(n, begin + shard_size);
    for (VertexId v = begin; v < end; ++v) {
      const VertexId* const list_end = next + lower_deg[v];
      std::copy(next, list_end, h.neighbors.begin() + h.offsets[v]);
      for (; next != list_end; ++next) h.neighbors[cursor[*next]++] = v;
    }
  }
  return h;
}

}  // namespace

UnipartiteGraph Construct2HopGraph(const BipartiteGraph& g, Side fair_side,
                                   std::uint32_t alpha, const SideMasks& masks,
                                   ReductionContext* ctx) {
  return ConstructImpl(g, fair_side, alpha, masks, /*per_attr=*/false, ctx);
}

UnipartiteGraph BiConstruct2HopGraph(const BipartiteGraph& g, Side fair_side,
                                     std::uint32_t alpha,
                                     const SideMasks& masks,
                                     ReductionContext* ctx) {
  return ConstructImpl(g, fair_side, alpha, masks, /*per_attr=*/true, ctx);
}

}  // namespace fairbc
