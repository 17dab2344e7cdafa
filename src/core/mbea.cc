#include "core/mbea.h"

#include <algorithm>
#include <optional>
#include <span>

#include "core/kernels.h"
#include "core/search_context.h"

namespace fairbc {

namespace {

// iMBEA recursion on the shared SearchContext layer: the context owns
// stats, budget, arena and sink; this class owns only the branch logic.
// RunSearch runs it serially (Run) or as independent branch tasks
// (RunBranch) on a pool. Only the serial loop (Recurse) applies the
// "exhausted candidate" skip, which is a pure work-saving: a skipped
// branch re-run in isolation is killed by the excluded-vertex check, so
// root tasks and split children may safely ignore it.
//
// Recursion state (shrunk L, filtered candidates, exclusion lists,
// class counters) lives in the worker's ScratchArena — one ArenaScope
// per frame, fixed capacities bounded by the parent sets — so the search
// never heap-allocates; emissions hand the sink spans into that arena.
class MbeaEngine {
 public:
  MbeaEngine(SearchContext& ctx, std::uint32_t min_upper,
             std::uint32_t min_lower_total, std::uint32_t min_lower_per_attr)
      : ctx_(ctx),
        min_upper_(std::max(min_upper, 1u)),
        min_lower_total_(min_lower_total),
        min_lower_per_attr_(min_lower_per_attr),
        num_lower_attrs_(ctx.graph().NumAttrs(Side::kLower)) {}

  void Run(std::span<const VertexId> upper_all,
           std::span<const VertexId> candidates) {
    Recurse(upper_all, {}, candidates, {});
  }

  /// One branch task (SearchTasks::branch): the branch on p[0] and its
  /// subtree, without the exhausted-candidate skip.
  void RunBranch(std::span<const VertexId> big_l, std::span<const VertexId> r,
                 std::span<const VertexId> p, std::span<const VertexId> q) {
    ArenaScope frame(ctx_.arena());
    IdVec unused_exhausted(ctx_.arena(), p.size());
    Branch(big_l, r, p, q, &unused_exhausted);
  }

 private:
  // Processes the branch at p[0] (exclusion set q) and recurses into its
  // subtree. Absorbed candidates with no neighbors outside the shrunk L
  // are appended to `exhausted` (caller-allocated, capacity >= |p|): the
  // caller may drop them from its remaining candidates (their branches
  // are provably redundant). Returns false when the whole search must
  // stop.
  bool Branch(std::span<const VertexId> big_l, std::span<const VertexId> r,
              std::span<const VertexId> p, std::span<const VertexId> q,
              IdVec* exhausted) {
    if (ctx_.ShouldStop()) return false;
    ctx_.CountNode();
    const BipartiteGraph& g = ctx_.graph();
    ScratchArena& arena = ctx_.arena();
    const VertexId x = p.front();

    // Top-k branch-and-bound: descendants stay within (|L|, |R| + |P|).
    // Cutting returns true: siblings continue, only this subtree dies.
    const TopKPruneBound* topk = ctx_.options().topk;
    if (topk != nullptr && topk->CanPrune(big_l.size(), r.size() + p.size())) {
      return true;
    }

    ArenaScope frame(arena);
    // Both scans read c = |N(v) ∩ L'|: from one wedge pass at a root
    // branch, from root rows below a narrow root, else by probing a
    // bitmap of L' in O(deg(v)).
    const std::optional<BranchCounts> branch =
        ctx_.OpenBranch(big_l, r, x, min_upper_);
    if (!branch) return true;
    const std::span<const VertexId> new_l = branch->upper;
    const CandidateCounts& counts = branch->counts;

    // An excluded vertex fully connected to L' means this L' (and every
    // L' of the subtree) was already enumerated in its branch.
    IdVec new_q(arena, q.size());
    if (!FilterCandidates(q, counts, min_upper_, FullCandidates::kStop,
                          &new_q, nullptr)) {
      return true;
    }

    IdVec new_p(arena, p.size() - 1);
    IdVec absorbed(arena, p.size() - 1);
    FilterCandidates(p.subspan(1), counts, min_upper_,
                     FullCandidates::kSeparate, &new_p, &absorbed);
    IdVec new_r(arena, r.size() + p.size());
    for (VertexId v : r) new_r.push_back(v);
    new_r.push_back(x);
    for (VertexId v : absorbed) {
      new_r.push_back(v);  // fully connected to L'.
      // Exhausted: no neighbor outside L' either (|N(v) ∩ L| == |L'|).
      if (ctx_.CountInL(*branch, big_l, v) == new_l.size()) {
        exhausted->push_back(v);
      }
    }
    std::sort(new_r.begin(), new_r.end());

    // Emit (new_l, new_r) if it passes the size filters.
    if (new_r.size() >= min_lower_total_) {
      bool classes_ok = true;
      if (min_lower_per_attr_ > 0) {
        CountVec sizes = CountVec::Zero(arena, num_lower_attrs_);
        for (VertexId v : new_r) ++sizes[g.Attr(Side::kLower, v)];
        for (auto s : sizes) {
          if (s < min_lower_per_attr_) {
            classes_ok = false;
            break;
          }
        }
      }
      if (classes_ok && !ctx_.Emit(new_l, new_r.view())) return false;
    }

    // Recurse if the candidate pool can still reach the thresholds.
    if (!new_p.empty() &&
        new_r.size() + new_p.size() >= min_lower_total_) {
      bool reachable = true;
      if (min_lower_per_attr_ > 0) {
        CountVec sizes = CountVec::Zero(arena, num_lower_attrs_);
        for (VertexId v : new_r) ++sizes[g.Attr(Side::kLower, v)];
        for (VertexId v : new_p) ++sizes[g.Attr(Side::kLower, v)];
        for (auto s : sizes) {
          if (s < min_lower_per_attr_) {
            reachable = false;
            break;
          }
        }
      }
      if (reachable) {
        if (!ctx_.TrySplit(new_l, new_r.view(), new_p.view(), new_q.view())) {
          Recurse(new_l, new_r.view(), new_p.view(), new_q.view());
        }
        if (ctx_.ShouldStop()) return false;
      }
    }
    return true;
  }

  // L sorted; R sorted; P in candidate order; Q arbitrary order. The
  // loop's mutable P/Q live in this frame's arena slice: Q grows by at
  // most |P| in total (p[0] plus exhausted vertices all come out of P),
  // and the shrinking candidate list ping-pongs between two fixed
  // buffers (reading one while writing the other, then swapping).
  void Recurse(std::span<const VertexId> big_l, std::span<const VertexId> r,
               std::span<const VertexId> p_in, std::span<const VertexId> q_in) {
    ScratchArena& arena = ctx_.arena();
    ArenaScope frame(arena);
    IdVec q(arena, q_in.size() + p_in.size());
    for (VertexId v : q_in) q.push_back(v);
    IdVec bufs[2] = {IdVec(arena, p_in.size()), IdVec(arena, p_in.size())};
    for (VertexId v : p_in) bufs[0].push_back(v);
    IdVec exhausted(arena, p_in.size());
    int cur = 0;
    while (!bufs[cur].empty()) {
      const IdVec& p = bufs[cur];
      exhausted.clear();
      if (!Branch(big_l, r, p.view(), q.view(), &exhausted)) return;

      // Move p[0] (and absorbed vertices with no neighbors outside the
      // shrunk L) from P to Q.
      q.push_back(p[0]);
      for (VertexId v : exhausted) q.push_back(v);
      IdVec& rest = bufs[1 - cur];
      rest.clear();
      for (std::size_t i = 1; i < p.size(); ++i) {
        if (std::find(exhausted.begin(), exhausted.end(), p[i]) ==
            exhausted.end()) {
          rest.push_back(p[i]);
        }
      }
      cur = 1 - cur;
    }
  }

  SearchContext& ctx_;
  const std::uint32_t min_upper_;
  const std::uint32_t min_lower_total_;
  const std::uint32_t min_lower_per_attr_;
  const AttrId num_lower_attrs_;
};

}  // namespace

EnumStats EnumerateMaximalBicliques(const BipartiteGraph& g,
                                    std::uint32_t min_upper,
                                    std::uint32_t min_lower_total,
                                    std::uint32_t min_lower_per_attr,
                                    const EnumOptions& options,
                                    const EngineSink& sink) {
  SearchTasks tasks;
  tasks.serial = [&](SearchContext& ctx, std::span<const VertexId> upper_all,
                     std::span<const VertexId> candidates) {
    MbeaEngine(ctx, min_upper, min_lower_total, min_lower_per_attr)
        .Run(upper_all, candidates);
  };
  tasks.branch = [&](SearchContext& ctx, std::span<const VertexId> big_l,
                     std::span<const VertexId> r, std::span<const VertexId> p,
                     std::span<const VertexId> q) {
    MbeaEngine(ctx, min_upper, min_lower_total, min_lower_per_attr)
        .RunBranch(big_l, r, p, q);
  };
  EnumStats stats = RunSearch(g, options, /*policy=*/nullptr, sink, tasks);
  stats.maximal_bicliques_visited = stats.num_results;
  return stats;
}

}  // namespace fairbc
