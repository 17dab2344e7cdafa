#include "core/cfcore.h"

#include <algorithm>
#include <atomic>
#include <deque>

#include "common/status.h"
#include "core/fcore.h"
#include "core/reduction_context.h"

namespace fairbc {

namespace {

// Serial ego colorful peel: the exact traversal the pre-parallel code ran
// (queue order preserved), used on serial contexts.
void EgoPeelSerial(const UnipartiteGraph& h, const Coloring& coloring,
                   std::uint32_t k, std::vector<char>& alive,
                   std::vector<std::uint32_t>& mult,
                   std::vector<std::uint32_t>& ego_deg) {
  const VertexId n = h.NumVertices();
  const AttrId na = h.num_attrs;
  const std::uint32_t nc = std::max<std::uint32_t>(coloring.num_colors, 1);
  const std::size_t stride = static_cast<std::size_t>(na) * nc;

  auto bump = [&](VertexId v, AttrId a, std::uint32_t c) {
    std::uint32_t& slot = mult[v * stride + static_cast<std::size_t>(a) * nc + c];
    if (slot == 0) ++ego_deg[static_cast<std::size_t>(v) * na + a];
    ++slot;
  };
  for (VertexId v = 0; v < n; ++v) {
    if (!alive[v]) continue;
    bump(v, h.attrs[v], coloring.color[v]);
    for (VertexId w : h.Neighbors(v)) {
      if (alive[w]) bump(v, h.attrs[w], coloring.color[w]);
    }
  }

  auto violates = [&](VertexId v) {
    for (AttrId a = 0; a < na; ++a) {
      if (ego_deg[static_cast<std::size_t>(v) * na + a] < k) return true;
    }
    return false;
  };

  std::deque<VertexId> queue;
  for (VertexId v = 0; v < n; ++v) {
    if (alive[v] && violates(v)) {
      alive[v] = 0;
      queue.push_back(v);
    }
  }
  while (!queue.empty()) {
    VertexId u = queue.front();
    queue.pop_front();
    const AttrId ua = h.attrs[u];
    const std::uint32_t uc = coloring.color[u];
    for (VertexId v : h.Neighbors(u)) {
      if (!alive[v]) continue;
      std::uint32_t& slot =
          mult[v * stride + static_cast<std::size_t>(ua) * nc + uc];
      FAIRBC_CHECK(slot > 0);
      --slot;
      if (slot == 0) {
        --ego_deg[static_cast<std::size_t>(v) * na + ua];
        if (violates(v)) {
          alive[v] = 0;
          queue.push_back(v);
        }
      }
    }
  }
}

// Frontier-based bulk-synchronous ego colorful peel (same fixpoint as the
// serial queue — see the overestimation argument in fcore.cc). The color
// multiplicity slots and ego degrees are decremented with atomics; the
// slot's 1 -> 0 transition is what decrements the ego degree, and each
// edge contributes that transition at most once.
void EgoPeelParallel(const UnipartiteGraph& h, const Coloring& coloring,
                     std::uint32_t k, std::vector<char>& alive,
                     std::vector<std::uint32_t>& mult,
                     std::vector<std::uint32_t>& ego_deg,
                     const ReductionContext& ctx) {
  const VertexId n = h.NumVertices();
  const AttrId na = h.num_attrs;
  const std::uint32_t nc = std::max<std::uint32_t>(coloring.num_colors, 1);
  const std::size_t stride = static_cast<std::size_t>(na) * nc;

  // Init: vertex v's multiplicity row is filled only by v's own chunk.
  ParallelForChunks(ctx, n, [&](std::uint64_t begin, std::uint64_t end,
                                unsigned) {
    auto bump = [&](VertexId v, AttrId a, std::uint32_t c) {
      std::uint32_t& slot =
          mult[v * stride + static_cast<std::size_t>(a) * nc + c];
      if (slot == 0) ++ego_deg[static_cast<std::size_t>(v) * na + a];
      ++slot;
    };
    for (VertexId v = static_cast<VertexId>(begin); v < end; ++v) {
      if (!alive[v]) continue;
      bump(v, h.attrs[v], coloring.color[v]);
      for (VertexId w : h.Neighbors(v)) {
        if (alive[w]) bump(v, h.attrs[w], coloring.color[w]);
      }
    }
  });

  auto violates = [&](VertexId v) {
    for (AttrId a = 0; a < na; ++a) {
      if (std::atomic_ref<std::uint32_t>(
              ego_deg[static_cast<std::size_t>(v) * na + a])
              .load(std::memory_order_relaxed) < k) {
        return true;
      }
    }
    return false;
  };

  std::vector<std::vector<VertexId>> local(ctx.num_lanes());
  ParallelForChunks(ctx, n, [&](std::uint64_t begin, std::uint64_t end,
                                unsigned worker) {
    for (VertexId v = static_cast<VertexId>(begin); v < end; ++v) {
      if (alive[v] && violates(v)) {
        alive[v] = 0;
        local[worker].push_back(v);
      }
    }
  });

  std::vector<VertexId> frontier;
  auto drain_local = [&] {
    frontier.clear();
    for (auto& buf : local) {
      frontier.insert(frontier.end(), buf.begin(), buf.end());
      buf.clear();
    }
  };
  drain_local();

  std::vector<VertexId> current;
  while (!frontier.empty()) {
    current.swap(frontier);
    ParallelForChunks(ctx, current.size(), [&](std::uint64_t begin,
                                               std::uint64_t end,
                                               unsigned worker) {
      auto& out = local[worker];
      for (std::uint64_t i = begin; i < end; ++i) {
        const VertexId u = current[i];
        const AttrId ua = h.attrs[u];
        const std::uint32_t uc = coloring.color[u];
        for (VertexId v : h.Neighbors(u)) {
          std::atomic_ref<char> alive_ref(alive[v]);
          if (alive_ref.load(std::memory_order_relaxed) == 0) continue;
          std::atomic_ref<std::uint32_t> slot(
              mult[v * stride + static_cast<std::size_t>(ua) * nc + uc]);
          const std::uint32_t prev =
              slot.fetch_sub(1, std::memory_order_relaxed);
          FAIRBC_CHECK(prev > 0);
          if (prev == 1) {
            std::atomic_ref<std::uint32_t>(
                ego_deg[static_cast<std::size_t>(v) * na + ua])
                .fetch_sub(1, std::memory_order_relaxed);
            if (violates(v)) {
              char expected = 1;
              if (alive_ref.compare_exchange_strong(
                      expected, 0, std::memory_order_relaxed)) {
                out.push_back(v);
              }
            }
          }
        }
      }
    });
    drain_local();
  }
}

}  // namespace

void EgoColorfulCorePeel(const UnipartiteGraph& h, const Coloring& coloring,
                         std::uint32_t k, std::vector<char>& alive,
                         std::size_t* meter_bytes, ReductionContext* ctx) {
  const VertexId n = h.NumVertices();
  const AttrId na = h.num_attrs;
  const std::uint32_t nc = std::max<std::uint32_t>(coloring.num_colors, 1);
  FAIRBC_CHECK(alive.size() == n);

  // Color multiplicity matrix M_v(attr, color) over N(v) ∪ {v}, flattened,
  // plus the ego colorful degrees ED_a(v) (count of nonzero color slots).
  const std::size_t stride = static_cast<std::size_t>(na) * nc;
  std::vector<std::uint32_t> mult(static_cast<std::size_t>(n) * stride, 0);
  std::vector<std::uint32_t> ego_deg(static_cast<std::size_t>(n) * na, 0);
  if (meter_bytes != nullptr) {
    *meter_bytes += mult.size() * sizeof(std::uint32_t) +
                    ego_deg.size() * sizeof(std::uint32_t);
  }

  if (ctx != nullptr && ctx->parallel()) {
    EgoPeelParallel(h, coloring, k, alive, mult, ego_deg, *ctx);
  } else {
    EgoPeelSerial(h, coloring, k, alive, mult, ego_deg);
  }
}

namespace {

// Shared colorful phase: build the 2-hop graph on `fair_side`, apply the
// clique-size degree bound, color, peel the ego colorful k-core, and
// clear the masks of removed vertices. Each stage accumulates into its
// phase timer on the context (construct / color / peel).
void ColorfulPhase(const BipartiteGraph& g, Side fair_side,
                   std::uint32_t common_threshold, std::uint32_t k,
                   bool per_attr, SideMasks& masks, std::size_t* bytes,
                   ReductionContext* ctx) {
  if (common_threshold == 0) return;  // 2-hop condition degenerate; skip.
  ReductionPhaseTimes* times = ctx != nullptr ? &ctx->times() : nullptr;

  UnipartiteGraph h;
  std::vector<char>& alive =
      fair_side == Side::kLower ? masks.lower_alive : masks.upper_alive;
  {
    ScopedPhaseTimer timer(times != nullptr ? &times->construct_seconds
                                            : nullptr,
                           ctx != nullptr ? ctx->trace() : nullptr,
                           "construct");
    h = per_attr
            ? BiConstruct2HopGraph(g, fair_side, common_threshold, masks, ctx)
            : Construct2HopGraph(g, fair_side, common_threshold, masks, ctx);
    if (bytes != nullptr) *bytes += h.MemoryBytes();

    // A fair biclique has at least num_attrs * k vertices on the fair
    // side, so each participant needs num_attrs * k - 1 neighbors in `h`
    // (paper Alg. 2 lines 4-5).
    const std::int64_t min_degree =
        static_cast<std::int64_t>(g.NumAttrs(fair_side)) * k - 1;
    for (VertexId v = 0; v < h.NumVertices(); ++v) {
      if (alive[v] && static_cast<std::int64_t>(h.Degree(v)) < min_degree) {
        alive[v] = 0;
      }
    }
  }

  Coloring coloring;
  {
    ScopedPhaseTimer timer(times != nullptr ? &times->color_seconds : nullptr,
                           ctx != nullptr ? ctx->trace() : nullptr, "color");
    // Jones–Plassmann evaluates the same degree-then-id greedy fixpoint in
    // parallel rounds, so the coloring (and hence the peel below) is
    // byte-identical to the serial GreedyColor path.
    coloring = ctx != nullptr && ctx->parallel()
                   ? JonesPlassmannColor(h, alive, ctx)
                   : GreedyColor(h, alive);
  }

  ScopedPhaseTimer timer(times != nullptr ? &times->peel_seconds : nullptr,
                         ctx != nullptr ? ctx->trace() : nullptr, "peel");
  EgoColorfulCorePeel(h, coloring, k, alive, bytes, ctx);
}

// CFCore (`bi_side` false) and BCFCore (true). The first FCore/BFCore
// pass runs on `g`; its survivors are compacted once, the colorful phases
// and the final core pass run on the compacted graph, and the surviving
// masks are scattered back to `g`'s ids. Compaction keeps ids in order,
// so every 2-hop graph, coloring (its degree-then-id order included) and
// peel is the parent-graph computation relabeled; only the counters,
// flags and multiplicity matrices shrink to the survivor count.
PruneResult ColorfulCore(const BipartiteGraph& g, std::uint32_t alpha,
                         std::uint32_t beta, bool bi_side,
                         ReductionContext* ctx) {
  IdMaps maps;
  const BipartiteGraph sub = InducedSubgraph(
      g, bi_side ? BFCore(g, alpha, beta, ctx) : FCore(g, alpha, beta, ctx),
      &maps);
  SideMasks masks;
  masks.upper_alive.assign(sub.NumUpper(), 1);
  masks.lower_alive.assign(sub.NumLower(), 1);
  PruneResult result;
  result.peak_struct_bytes = sub.MemoryBytes();

  // Lower side: vertices must share alpha common neighbors (per upper
  // class when bi-side); BCFCore's upper side: beta common neighbors per
  // lower class.
  ColorfulPhase(sub, Side::kLower, alpha, beta, /*per_attr=*/bi_side, masks,
                &result.peak_struct_bytes, ctx);
  if (bi_side) {
    ColorfulPhase(sub, Side::kUpper, beta, alpha, /*per_attr=*/true, masks,
                  &result.peak_struct_bytes, ctx);
    BFCoreInPlace(sub, alpha, beta, masks, ctx);
  } else {
    FCoreInPlace(sub, alpha, beta, masks, ctx);
  }

  result.masks.upper_alive.assign(g.NumUpper(), 0);
  result.masks.lower_alive.assign(g.NumLower(), 0);
  for (VertexId u = 0; u < sub.NumUpper(); ++u) {
    result.masks.upper_alive[maps.upper_to_parent[u]] = masks.upper_alive[u];
  }
  for (VertexId v = 0; v < sub.NumLower(); ++v) {
    result.masks.lower_alive[maps.lower_to_parent[v]] = masks.lower_alive[v];
  }
  return result;
}

}  // namespace

PruneResult CFCore(const BipartiteGraph& g, std::uint32_t alpha,
                   std::uint32_t beta, ReductionContext* ctx) {
  return ColorfulCore(g, alpha, beta, /*bi_side=*/false, ctx);
}

PruneResult BCFCore(const BipartiteGraph& g, std::uint32_t alpha,
                    std::uint32_t beta, ReductionContext* ctx) {
  return ColorfulCore(g, alpha, beta, /*bi_side=*/true, ctx);
}

}  // namespace fairbc
