#include "core/fcore.h"

#include <atomic>
#include <deque>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/reduction_context.h"
#include "fairness/fair_vector.h"

namespace fairbc {

namespace {

// Shared peeling engine operating on the alive subgraph in `masks`. The
// upper side always uses lower-attribute degrees with threshold beta; the
// lower side uses plain degree (FCore) or upper-attribute degrees
// (BFCore) with threshold alpha.
void PeelCoreSerial(const BipartiteGraph& g, std::uint32_t alpha,
                    std::uint32_t beta, bool bi_side, SideMasks& masks) {
  const VertexId nu = g.NumUpper();
  const VertexId nv = g.NumLower();
  const AttrId av = g.NumAttrs(Side::kLower);
  const AttrId au = g.NumAttrs(Side::kUpper);
  FAIRBC_CHECK(masks.upper_alive.size() == nu);
  FAIRBC_CHECK(masks.lower_alive.size() == nv);

  // Attribute degrees, flattened [vertex * num_attrs + attr].
  std::vector<std::uint32_t> up_attr_deg(static_cast<std::size_t>(nu) * av, 0);
  std::vector<std::uint32_t> lo_attr_deg;
  std::vector<std::uint32_t> lo_deg(nv, 0);
  if (bi_side) lo_attr_deg.assign(static_cast<std::size_t>(nv) * au, 0);

  for (VertexId u = 0; u < nu; ++u) {
    if (!masks.upper_alive[u]) continue;
    for (VertexId v : g.Neighbors(Side::kUpper, u)) {
      if (!masks.lower_alive[v]) continue;
      ++up_attr_deg[static_cast<std::size_t>(u) * av + g.Attr(Side::kLower, v)];
      ++lo_deg[v];
      if (bi_side) {
        ++lo_attr_deg[static_cast<std::size_t>(v) * au +
                      g.Attr(Side::kUpper, u)];
      }
    }
  }

  auto upper_violates = [&](VertexId u) {
    for (AttrId a = 0; a < av; ++a) {
      if (up_attr_deg[static_cast<std::size_t>(u) * av + a] < beta) return true;
    }
    return false;
  };
  auto lower_violates = [&](VertexId v) {
    if (!bi_side) return lo_deg[v] < alpha;
    for (AttrId a = 0; a < au; ++a) {
      if (lo_attr_deg[static_cast<std::size_t>(v) * au + a] < alpha) return true;
    }
    return false;
  };

  std::deque<std::pair<Side, VertexId>> queue;
  for (VertexId u = 0; u < nu; ++u) {
    if (masks.upper_alive[u] && upper_violates(u)) {
      masks.upper_alive[u] = 0;
      queue.emplace_back(Side::kUpper, u);
    }
  }
  for (VertexId v = 0; v < nv; ++v) {
    if (masks.lower_alive[v] && lower_violates(v)) {
      masks.lower_alive[v] = 0;
      queue.emplace_back(Side::kLower, v);
    }
  }

  while (!queue.empty()) {
    auto [side, x] = queue.front();
    queue.pop_front();
    if (side == Side::kUpper) {
      const AttrId xa = g.Attr(Side::kUpper, x);
      for (VertexId v : g.Neighbors(Side::kUpper, x)) {
        if (!masks.lower_alive[v]) continue;
        --lo_deg[v];
        if (bi_side) --lo_attr_deg[static_cast<std::size_t>(v) * au + xa];
        if (lower_violates(v)) {
          masks.lower_alive[v] = 0;
          queue.emplace_back(Side::kLower, v);
        }
      }
    } else {
      const AttrId xa = g.Attr(Side::kLower, x);
      for (VertexId u : g.Neighbors(Side::kLower, x)) {
        if (!masks.upper_alive[u]) continue;
        --up_attr_deg[static_cast<std::size_t>(u) * av + xa];
        if (upper_violates(u)) {
          masks.upper_alive[u] = 0;
          queue.emplace_back(Side::kUpper, u);
        }
      }
    }
  }
}

inline std::atomic_ref<std::uint32_t> AtomicAt(std::vector<std::uint32_t>& v,
                                               std::size_t i) {
  return std::atomic_ref<std::uint32_t>(v[i]);
}

// Frontier-based bulk-synchronous peel. Counters lag behind removals that
// are still queued in the frontier, so they only ever *overestimate* the
// alive degree — a vertex removed here genuinely violates its threshold
// (violation is monotone under decrements), and every pending removal is
// processed in a later round. The fixpoint is therefore exactly the core
// the serial peel computes; only the traversal order differs.
void PeelCoreParallel(const BipartiteGraph& g, std::uint32_t alpha,
                      std::uint32_t beta, bool bi_side, SideMasks& masks,
                      const ReductionContext& ctx) {
  const VertexId nu = g.NumUpper();
  const VertexId nv = g.NumLower();
  const AttrId av = g.NumAttrs(Side::kLower);
  const AttrId au = g.NumAttrs(Side::kUpper);
  FAIRBC_CHECK(masks.upper_alive.size() == nu);
  FAIRBC_CHECK(masks.lower_alive.size() == nv);

  std::vector<std::uint32_t> up_attr_deg(static_cast<std::size_t>(nu) * av, 0);
  std::vector<std::uint32_t> lo_attr_deg;
  std::vector<std::uint32_t> lo_deg(nv, 0);
  if (bi_side) lo_attr_deg.assign(static_cast<std::size_t>(nv) * au, 0);

  // Degree init: each side fills its own rows from its own adjacency, so
  // the writes of distinct chunks never alias.
  ParallelForChunks(ctx, nu, [&](std::uint64_t begin, std::uint64_t end,
                                 unsigned) {
    for (VertexId u = static_cast<VertexId>(begin); u < end; ++u) {
      if (!masks.upper_alive[u]) continue;
      for (VertexId v : g.Neighbors(Side::kUpper, u)) {
        if (masks.lower_alive[v]) {
          ++up_attr_deg[static_cast<std::size_t>(u) * av +
                        g.Attr(Side::kLower, v)];
        }
      }
    }
  });
  ParallelForChunks(ctx, nv, [&](std::uint64_t begin, std::uint64_t end,
                                 unsigned) {
    for (VertexId v = static_cast<VertexId>(begin); v < end; ++v) {
      if (!masks.lower_alive[v]) continue;
      for (VertexId u : g.Neighbors(Side::kLower, v)) {
        if (!masks.upper_alive[u]) continue;
        ++lo_deg[v];
        if (bi_side) {
          ++lo_attr_deg[static_cast<std::size_t>(v) * au +
                        g.Attr(Side::kUpper, u)];
        }
      }
    }
  });

  // Violation checks over the (possibly concurrently decremented) atomic
  // counters. Relaxed order suffices: counters only decrease, and any
  // decrement that crosses a threshold is observed by the worker that
  // performed it.
  auto upper_violates = [&](VertexId u) {
    for (AttrId a = 0; a < av; ++a) {
      if (AtomicAt(up_attr_deg, static_cast<std::size_t>(u) * av + a)
              .load(std::memory_order_relaxed) < beta) {
        return true;
      }
    }
    return false;
  };
  auto lower_violates = [&](VertexId v) {
    if (!bi_side) {
      return AtomicAt(lo_deg, v).load(std::memory_order_relaxed) < alpha;
    }
    for (AttrId a = 0; a < au; ++a) {
      if (AtomicAt(lo_attr_deg, static_cast<std::size_t>(v) * au + a)
              .load(std::memory_order_relaxed) < alpha) {
        return true;
      }
    }
    return false;
  };

  using Removal = std::pair<Side, VertexId>;
  std::vector<std::vector<Removal>> local(ctx.num_lanes());

  // Initial frontier: unsynchronized scans are safe — each vertex is
  // examined by exactly one chunk and the scans only read counters their
  // own side's init wrote (published by the batch barrier above).
  ParallelForChunks(ctx, nu, [&](std::uint64_t begin, std::uint64_t end,
                                 unsigned worker) {
    for (VertexId u = static_cast<VertexId>(begin); u < end; ++u) {
      if (masks.upper_alive[u] && upper_violates(u)) {
        masks.upper_alive[u] = 0;
        local[worker].emplace_back(Side::kUpper, u);
      }
    }
  });
  ParallelForChunks(ctx, nv, [&](std::uint64_t begin, std::uint64_t end,
                                 unsigned worker) {
    for (VertexId v = static_cast<VertexId>(begin); v < end; ++v) {
      if (masks.lower_alive[v] && lower_violates(v)) {
        masks.lower_alive[v] = 0;
        local[worker].emplace_back(Side::kLower, v);
      }
    }
  });

  std::vector<Removal> frontier;
  auto drain_local = [&] {
    frontier.clear();
    for (auto& buf : local) {
      frontier.insert(frontier.end(), buf.begin(), buf.end());
      buf.clear();
    }
  };
  drain_local();

  // Rounds: every removal decrements its alive neighbors' counters once;
  // a CAS on the alive byte makes sure each newly violating vertex enters
  // the next frontier exactly once. Decrements of vertices that die in
  // the same round are harmless (their counters are never read again).
  std::vector<Removal> current;
  while (!frontier.empty()) {
    current.swap(frontier);
    ParallelForChunks(ctx, current.size(), [&](std::uint64_t begin,
                                               std::uint64_t end,
                                               unsigned worker) {
      auto& out = local[worker];
      for (std::uint64_t i = begin; i < end; ++i) {
        const auto [side, x] = current[i];
        if (side == Side::kUpper) {
          const AttrId xa = g.Attr(Side::kUpper, x);
          for (VertexId v : g.Neighbors(Side::kUpper, x)) {
            std::atomic_ref<char> alive(masks.lower_alive[v]);
            if (alive.load(std::memory_order_relaxed) == 0) continue;
            AtomicAt(lo_deg, v).fetch_sub(1, std::memory_order_relaxed);
            if (bi_side) {
              AtomicAt(lo_attr_deg, static_cast<std::size_t>(v) * au + xa)
                  .fetch_sub(1, std::memory_order_relaxed);
            }
            if (lower_violates(v)) {
              char expected = 1;
              if (alive.compare_exchange_strong(expected, 0,
                                                std::memory_order_relaxed)) {
                out.emplace_back(Side::kLower, v);
              }
            }
          }
        } else {
          const AttrId xa = g.Attr(Side::kLower, x);
          for (VertexId u : g.Neighbors(Side::kLower, x)) {
            std::atomic_ref<char> alive(masks.upper_alive[u]);
            if (alive.load(std::memory_order_relaxed) == 0) continue;
            AtomicAt(up_attr_deg, static_cast<std::size_t>(u) * av + xa)
                .fetch_sub(1, std::memory_order_relaxed);
            if (upper_violates(u)) {
              char expected = 1;
              if (alive.compare_exchange_strong(expected, 0,
                                                std::memory_order_relaxed)) {
                out.emplace_back(Side::kUpper, u);
              }
            }
          }
        }
      }
    });
    drain_local();
  }
}

void PeelCore(const BipartiteGraph& g, std::uint32_t alpha, std::uint32_t beta,
              bool bi_side, SideMasks& masks, ReductionContext* ctx) {
  ScopedPhaseTimer timer(ctx != nullptr ? &ctx->times().peel_seconds : nullptr,
                         ctx != nullptr ? ctx->trace() : nullptr, "peel");
  if (ctx != nullptr && ctx->parallel()) {
    PeelCoreParallel(g, alpha, beta, bi_side, masks, *ctx);
  } else {
    PeelCoreSerial(g, alpha, beta, bi_side, masks);
  }
}

SideMasks AllAlive(const BipartiteGraph& g) {
  SideMasks masks;
  masks.upper_alive.assign(g.NumUpper(), 1);
  masks.lower_alive.assign(g.NumLower(), 1);
  return masks;
}

}  // namespace

SideMasks FCore(const BipartiteGraph& g, std::uint32_t alpha,
                std::uint32_t beta, ReductionContext* ctx) {
  SideMasks masks = AllAlive(g);
  PeelCore(g, alpha, beta, /*bi_side=*/false, masks, ctx);
  return masks;
}

SideMasks BFCore(const BipartiteGraph& g, std::uint32_t alpha,
                 std::uint32_t beta, ReductionContext* ctx) {
  SideMasks masks = AllAlive(g);
  PeelCore(g, alpha, beta, /*bi_side=*/true, masks, ctx);
  return masks;
}

void FCoreInPlace(const BipartiteGraph& g, std::uint32_t alpha,
                  std::uint32_t beta, SideMasks& masks, ReductionContext* ctx) {
  PeelCore(g, alpha, beta, /*bi_side=*/false, masks, ctx);
}

void BFCoreInPlace(const BipartiteGraph& g, std::uint32_t alpha,
                   std::uint32_t beta, SideMasks& masks, ReductionContext* ctx) {
  PeelCore(g, alpha, beta, /*bi_side=*/true, masks, ctx);
}

SideMasks FCoreNaive(const BipartiteGraph& g, std::uint32_t alpha,
                     std::uint32_t beta, bool bi_side) {
  SideMasks masks;
  masks.upper_alive.assign(g.NumUpper(), 1);
  masks.lower_alive.assign(g.NumLower(), 1);
  const AttrId av = g.NumAttrs(Side::kLower);
  const AttrId au = g.NumAttrs(Side::kUpper);

  bool changed = true;
  while (changed) {
    changed = false;
    for (VertexId u = 0; u < g.NumUpper(); ++u) {
      if (!masks.upper_alive[u]) continue;
      SizeVector deg(av, 0);
      for (VertexId v : g.Neighbors(Side::kUpper, u)) {
        if (masks.lower_alive[v]) ++deg[g.Attr(Side::kLower, v)];
      }
      for (AttrId a = 0; a < av; ++a) {
        if (deg[a] < beta) {
          masks.upper_alive[u] = 0;
          changed = true;
          break;
        }
      }
    }
    for (VertexId v = 0; v < g.NumLower(); ++v) {
      if (!masks.lower_alive[v]) continue;
      if (!bi_side) {
        std::uint32_t d = 0;
        for (VertexId u : g.Neighbors(Side::kLower, v)) {
          if (masks.upper_alive[u]) ++d;
        }
        if (d < alpha) {
          masks.lower_alive[v] = 0;
          changed = true;
        }
      } else {
        SizeVector deg(au, 0);
        for (VertexId u : g.Neighbors(Side::kLower, v)) {
          if (masks.upper_alive[u]) ++deg[g.Attr(Side::kUpper, u)];
        }
        for (AttrId a = 0; a < au; ++a) {
          if (deg[a] < alpha) {
            masks.lower_alive[v] = 0;
            changed = true;
            break;
          }
        }
      }
    }
  }
  return masks;
}

}  // namespace fairbc
