#include "core/coloring.h"

#include <algorithm>
#include <atomic>

#include "common/status.h"
#include "core/reduction_context.h"

namespace fairbc {

namespace {

/// Fixed total priority order: degree desc, then id asc. GreedyColor
/// processes vertices in this order and JonesPlassmannColor ranks by it,
/// which is what makes the two kernels byte-identical.
struct Outranks {
  const UnipartiteGraph& h;
  bool operator()(VertexId a, VertexId b) const {
    const VertexId da = h.Degree(a), db = h.Degree(b);
    return da != db ? da > db : a < b;
  }
};

/// Mex scratch for `h`, all zero; colors never exceed the maximum degree.
std::vector<VertexId> MexScratch(const UnipartiteGraph& h) {
  VertexId max_degree = 0;
  for (VertexId v = 0; v < h.NumVertices(); ++v) {
    max_degree = std::max(max_degree, h.Degree(v));
  }
  return std::vector<VertexId>(static_cast<std::size_t>(max_degree) + 2, 0);
}

/// Smallest color absent among `v`'s alive higher-priority neighbors, all
/// of which are already colored. `mark` (from MexScratch) is stamped with
/// `v + 1` so it never needs clearing between vertices: a vertex costs
/// O(degree), not O(colors).
std::uint32_t MexColor(const UnipartiteGraph& h, const std::vector<char>& alive,
                       const std::vector<std::uint32_t>& color, VertexId v,
                       std::vector<VertexId>& mark) {
  const Outranks higher{h};
  const VertexId stamp = v + 1;
  std::uint32_t bound = 0;  // colors seen are < number of ranked neighbors.
  for (VertexId w : h.Neighbors(v)) {
    if (!alive[w] || !higher(w, v)) continue;
    ++bound;
    if (color[w] < mark.size()) mark[color[w]] = stamp;
  }
  for (std::uint32_t c = 0; c <= bound; ++c) {
    if (mark[c] != stamp) return c;
  }
  FAIRBC_CHECK(false);  // mex is at most the ranked-neighbor count.
  return 0;
}

}  // namespace

Coloring GreedyColor(const UnipartiteGraph& h, const std::vector<char>& alive) {
  const VertexId n = h.NumVertices();
  FAIRBC_CHECK(alive.size() == n);
  Coloring result;
  result.color.assign(n, 0);

  std::vector<VertexId> order;
  order.reserve(n);
  for (VertexId v = 0; v < n; ++v) {
    if (alive[v]) order.push_back(v);
  }
  std::sort(order.begin(), order.end(), Outranks{h});

  // Every alive neighbor that outranks v precedes it in `order`, so all of
  // them are colored by the time v takes the mex of their colors.
  std::vector<VertexId> mark = MexScratch(h);
  for (VertexId v : order) {
    result.color[v] = MexColor(h, alive, result.color, v, mark);
    result.num_colors = std::max(result.num_colors, result.color[v] + 1);
  }
  return result;
}

Coloring JonesPlassmannColor(const UnipartiteGraph& h,
                             const std::vector<char>& alive,
                             ReductionContext* ctx) {
  const VertexId n = h.NumVertices();
  FAIRBC_CHECK(alive.size() == n);
  Coloring result;
  result.color.assign(n, 0);
  if (n == 0) return result;

  const Outranks higher{h};

  const bool parallel = ctx != nullptr && ctx->parallel();
  const unsigned workers = ctx != nullptr ? ctx->num_lanes() : 1;

  // wait[v]: uncolored alive higher-priority neighbors of v; a vertex
  // enters the frontier when its count hits zero. Two frontier vertices
  // are never adjacent (the higher-priority endpoint would still be
  // waiting on the other), so a round colors an independent set and the
  // colors it reads were all published by earlier rounds' barriers.
  std::vector<std::uint32_t> wait(n, 0);
  std::vector<std::vector<VertexId>> local(workers);
  auto seed_range = [&](VertexId begin, VertexId end, unsigned worker) {
    for (VertexId v = begin; v < end; ++v) {
      if (!alive[v]) continue;
      std::uint32_t pending = 0;
      for (VertexId w : h.Neighbors(v)) {
        if (alive[w] && higher(w, v)) ++pending;
      }
      wait[v] = pending;
      if (pending == 0) local[worker].push_back(v);
    }
  };
  if (parallel) {
    ParallelForChunks(*ctx, n, [&](std::uint64_t begin, std::uint64_t end,
                                   unsigned worker) {
      seed_range(static_cast<VertexId>(begin), static_cast<VertexId>(end),
                 worker);
    });
  } else {
    seed_range(0, n, 0);
  }

  std::vector<VertexId> frontier;
  auto drain_local = [&] {
    frontier.clear();
    for (auto& buf : local) {
      frontier.insert(frontier.end(), buf.begin(), buf.end());
      buf.clear();
    }
  };
  drain_local();

  std::vector<std::vector<VertexId>> marks(workers, MexScratch(h));

  std::vector<VertexId> current;
  while (!frontier.empty()) {
    current.swap(frontier);
    auto color_range = [&](std::uint64_t begin, std::uint64_t end,
                           unsigned worker) {
      auto& out = local[worker];
      auto& mark = marks[worker];
      for (std::uint64_t i = begin; i < end; ++i) {
        const VertexId v = current[i];
        result.color[v] = MexColor(h, alive, result.color, v, mark);
        for (VertexId w : h.Neighbors(v)) {
          if (!alive[w] || !higher(v, w)) continue;
          if (parallel) {
            if (std::atomic_ref<std::uint32_t>(wait[w]).fetch_sub(
                    1, std::memory_order_relaxed) == 1) {
              out.push_back(w);
            }
          } else if (--wait[w] == 0) {
            out.push_back(w);
          }
        }
      }
    };
    if (parallel) {
      ParallelForChunks(*ctx, current.size(), color_range);
    } else {
      color_range(0, current.size(), 0);
    }
    drain_local();
  }

  for (VertexId v = 0; v < n; ++v) {
    if (alive[v]) {
      result.num_colors = std::max(result.num_colors, result.color[v] + 1);
    }
  }
  return result;
}

bool IsProperColoring(const UnipartiteGraph& h, const std::vector<char>& alive,
                      const Coloring& coloring) {
  for (VertexId v = 0; v < h.NumVertices(); ++v) {
    if (!alive[v]) continue;
    for (VertexId w : h.Neighbors(v)) {
      if (alive[w] && coloring.color[v] == coloring.color[w]) return false;
    }
  }
  return true;
}

}  // namespace fairbc
