#include "core/fair_bcem.h"

#include <algorithm>
#include <optional>
#include <span>

#include "core/kernels.h"
#include "core/search_context.h"

namespace fairbc {

namespace {

// FairBCEM recursion (paper Alg. 5) on the shared SearchContext layer:
// the context owns stats, budget, fairness policy and sink; this class
// owns only the branch-and-bound logic. RunSearch runs it serially (Run)
// or as independent branch tasks (RunBranch) on a pool.
//
// Every per-branch set (new L, filtered candidates, exclusion lists,
// class counters) is carved out of the worker's ScratchArena — one
// ArenaScope per recursion frame, capacity bounds proven from the parent
// sets — so neither the recursion nor its emissions touch the heap.
class FairBcemEngine {
 public:
  FairBcemEngine(SearchContext& ctx, const FairBcemSearchOptions& search,
                 std::uint32_t min_upper)
      : ctx_(ctx),
        search_(search),
        min_upper_(std::max(min_upper, 1u)),
        num_attrs_(ctx.graph().NumAttrs(Side::kLower)) {}

  /// Full serial search; traversal (and node accounting) is identical to
  /// running every root branch in candidate order.
  void Run(std::span<const VertexId> upper_all,
           std::span<const VertexId> candidates) {
    ArenaScope frame(ctx_.arena());
    const CountVec zero = CountVec::Zero(ctx_.arena(), num_attrs_);
    Recurse(upper_all, {}, zero.view(), candidates, {});
  }

  /// One branch task (SearchTasks::branch): the branch on p[0] and its
  /// subtree.
  void RunBranch(std::span<const VertexId> big_l, std::span<const VertexId> r,
                 std::span<const VertexId> p, std::span<const VertexId> q) {
    ArenaScope frame(ctx_.arena());
    CountVec r_sizes = CountVec::Zero(ctx_.arena(), num_attrs_);
    for (VertexId v : r) ++r_sizes[ctx_.graph().Attr(Side::kLower, v)];
    Branch(big_l, r, r_sizes.view(), p, q);
  }

 private:
  std::uint32_t CandidateThreshold() const {
    return search_.filter_candidates_alpha ? min_upper_ : 1u;
  }

  // Emits (upper, lower) if the maximality check against `ground_sizes`
  // passes. `lower_sizes` must be the class sizes of `lower`. Only an
  // actual emission sorts a copy of `lower`, in the arena.
  void MaybeEmit(std::span<const VertexId> upper,
                 std::span<const VertexId> lower, SizeSpan lower_sizes,
                 SizeSpan ground_sizes) {
    if (upper.size() < min_upper_) return;
    if (!ctx_.policy().Feasible(lower_sizes)) return;
    if (!ctx_.policy().MaximalWithin(lower_sizes, ground_sizes)) return;
    ArenaScope frame(ctx_.arena());
    IdVec sorted(ctx_.arena(), lower.size());
    for (VertexId v : lower) sorted.push_back(v);
    std::sort(sorted.begin(), sorted.end());
    ctx_.Emit(upper, sorted.view());
  }

  // Processes the branch rooted at p[0] (remaining candidates p, exclusion
  // set q; `r_sizes` are the class sizes of r, computed once per level)
  // and recurses into its subtree. Returns false when the whole search
  // must stop (budget exhausted or sink abort).
  bool Branch(std::span<const VertexId> big_l, std::span<const VertexId> r,
              SizeSpan r_sizes, std::span<const VertexId> p,
              std::span<const VertexId> q) {
    if (ctx_.ShouldStop()) return false;
    ctx_.CountNode();
    const BipartiteGraph& g = ctx_.graph();
    ScratchArena& arena = ctx_.arena();
    const VertexId x = p.front();

    // Top-k branch-and-bound: no result below this node can exceed
    // (|L|, |R| + |P|) — every descendant upper set is a subset of L and
    // every descendant pick comes from R ∪ P (excluded q vertices never
    // re-enter). Cut the subtree when even that shape cannot reach the
    // published k-th best; `return true` (not false) — siblings go on.
    const TopKPruneBound* topk = ctx_.options().topk;
    if (topk != nullptr && topk->CanPrune(big_l.size(), r.size() + p.size())) {
      return true;
    }

    ArenaScope frame(arena);
    // Both candidate filters read c = |N(v) ∩ L'|: from one wedge pass at
    // a root branch, from root rows below a narrow root, else by probing
    // a bitmap of L' in O(deg(v)).
    const std::optional<BranchCounts> branch = ctx_.OpenBranch(
        big_l, r, x, search_.prune_small_l ? min_upper_ : 1u);
    if (!branch) return true;
    const std::span<const VertexId> new_l = branch->upper;
    const CandidateCounts& counts = branch->counts;
    IdVec new_q(arena, q.size());
    IdVec q_full(arena, q.size());
    FilterCandidates(q, counts, CandidateThreshold(), FullCandidates::kKeep,
                     &new_q, &q_full);
    if (search_.prune_excluded_full && !q_full.empty()) {
      // Observation 2: one fully-connected excluded vertex per class
      // means no descendant can be maximal.
      CountVec cover = CountVec::Zero(arena, num_attrs_);
      for (VertexId v : q_full) ++cover[g.Attr(Side::kLower, v)];
      bool all_covered = true;
      for (auto c : cover) {
        if (c == 0) {
          all_covered = false;
          break;
        }
      }
      if (all_covered) return true;
    }

    IdVec new_p(arena, p.size() - 1);
    IdVec p_full(arena, p.size() - 1);
    FilterCandidates(p.subspan(1), counts, CandidateThreshold(),
                     FullCandidates::kKeep, &new_p, &p_full);

    // Tighter top-k bound now that L' and the surviving candidates are
    // known: upper ≤ |new_l|, lower ≤ |r| + 1 (x) + |new_p|.
    if (topk != nullptr &&
        topk->CanPrune(new_l.size(), r.size() + 1 + new_p.size())) {
      return true;
    }

    IdVec new_r(arena, r.size() + 1);
    for (VertexId v : r) new_r.push_back(v);
    new_r.push_back(x);
    CountVec new_r_sizes = CountVec::CopyOf(arena, r_sizes);
    ++new_r_sizes[g.Attr(Side::kLower, x)];
    CountVec ground_sizes = CountVec::CopyOf(arena, new_r_sizes.view());
    for (VertexId v : p_full) ++ground_sizes[g.Attr(Side::kLower, v)];
    for (VertexId v : q_full) ++ground_sizes[g.Attr(Side::kLower, v)];

    bool shortcut = false;
    // p_full ⊆ new_p requires |new_l| >= threshold; only then does the
    // size equality mean "every remaining candidate is fully connected".
    if (search_.absorb_full_candidates &&
        new_l.size() >= CandidateThreshold() &&
        new_p.size() == p_full.size()) {
      // Observation 4: every remaining candidate is fully connected.
      CountVec all_sizes = CountVec::CopyOf(arena, new_r_sizes.view());
      for (VertexId v : p_full) ++all_sizes[g.Attr(Side::kLower, v)];
      if (ctx_.policy().Feasible(all_sizes.view())) {
        IdVec all_r(arena, new_r.size() + p_full.size());
        for (VertexId v : new_r) all_r.push_back(v);
        for (VertexId v : p_full) all_r.push_back(v);
        MaybeEmit(new_l, all_r.view(), all_sizes.view(),
                  ground_sizes.view());
        shortcut = true;
      }
    }

    if (!shortcut) {
      MaybeEmit(new_l, new_r.view(), new_r_sizes.view(),
                ground_sizes.view());
      if (ctx_.budget().aborted()) return false;
      if (!new_p.empty()) {
        bool reachable = true;
        if (search_.prune_class_counts) {
          // Observation 5 (second half): every class must be able to
          // reach beta from R' plus the candidate pool.
          CountVec pool = CountVec::CopyOf(arena, new_r_sizes.view());
          for (VertexId v : new_p) ++pool[g.Attr(Side::kLower, v)];
          reachable = ctx_.policy().Reachable(pool.view());
        }
        if (reachable) {
          if (!ctx_.TrySplit(new_l, new_r.view(), new_p.view(),
                             new_q.view())) {
            Recurse(new_l, new_r.view(), new_r_sizes.view(),
                    new_p.view(), new_q.view());
          }
          if (ctx_.ShouldStop()) return false;
        }
      }
    }
    return !ctx_.budget().aborted();
  }

  // Branches on every candidate of p in order, growing the exclusion set.
  // `r_sizes` are the class sizes of r, handed down by the caller (the
  // parent branch already maintains them incrementally).
  void Recurse(std::span<const VertexId> big_l, std::span<const VertexId> r,
               SizeSpan r_sizes, std::span<const VertexId> p,
               std::span<const VertexId> q_in) {
    ArenaScope frame(ctx_.arena());
    IdVec q(ctx_.arena(), q_in.size() + p.size());
    for (VertexId v : q_in) q.push_back(v);
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (!Branch(big_l, r, r_sizes, p.subspan(i), q.view())) return;
      q.push_back(p[i]);
    }
  }

  SearchContext& ctx_;
  const FairBcemSearchOptions& search_;
  const std::uint32_t min_upper_;
  const AttrId num_attrs_;
};

}  // namespace

EnumStats FairBcemRun(const BipartiteGraph& g, const FairBicliqueParams& params,
                      std::uint32_t min_upper, const EnumOptions& options,
                      const FairBcemSearchOptions& search,
                      const EngineSink& sink) {
  const SpecFairnessPolicy policy(params.LowerSpec());
  SearchTasks tasks;
  tasks.serial = [&](SearchContext& ctx, std::span<const VertexId> upper_all,
                     std::span<const VertexId> candidates) {
    FairBcemEngine(ctx, search, min_upper).Run(upper_all, candidates);
  };
  tasks.branch = [&](SearchContext& ctx, std::span<const VertexId> big_l,
                     std::span<const VertexId> r, std::span<const VertexId> p,
                     std::span<const VertexId> q) {
    FairBcemEngine(ctx, search, min_upper).RunBranch(big_l, r, p, q);
  };
  return RunSearch(g, options, &policy, sink, tasks);
}

}  // namespace fairbc
