#include "core/fair_bcem.h"

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "core/kernels.h"
#include "core/ordering.h"
#include "core/parallel.h"
#include "core/search_context.h"
#include "fairness/fair_vector.h"
#include "obs/trace.h"

namespace fairbc {

namespace {

class FairBcemEngine;
using ContextSplitter = SubtreeSplitter<std::unique_ptr<SearchContext>>;

// FairBCEM recursion (paper Alg. 5) on the shared SearchContext layer:
// the context owns stats, budget, fairness policy and sink; this class
// owns only the branch-and-bound logic. Root-level branches are
// independent (branch i's exclusion set is exactly the candidates before
// it), which is what the parallel fan-out in FairBcemRun exploits; a
// root branch whose subtree dominates re-submits its depth-1 children to
// the pool once the queue runs dry (depth-adaptive splitting).
//
// Every per-branch set (new L, filtered candidates, exclusion lists,
// class counters) is carved out of the worker's ScratchArena — one
// ArenaScope per recursion frame, capacity bounds proven from the parent
// sets — so neither the recursion nor its emissions touch the heap.
class FairBcemEngine {
 public:
  FairBcemEngine(SearchContext& ctx, const FairBcemSearchOptions& search,
                 std::uint32_t min_upper, ContextSplitter* splitter = nullptr)
      : ctx_(ctx),
        search_(search),
        splitter_(splitter),
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

  /// One root-level subtree: the branch on candidates[root] with the
  /// exclusion prefix candidates[0..root).
  void RunRootBranch(std::span<const VertexId> upper_all,
                     std::span<const VertexId> candidates, std::size_t root) {
    allow_split_ = splitter_ != nullptr;
    ArenaScope frame(ctx_.arena());
    const CountVec zero = CountVec::Zero(ctx_.arena(), num_attrs_);
    Branch(upper_all, {}, zero.view(), candidates.subspan(root),
           candidates.first(root));
  }

  /// One depth-1 child of a split subtree (never splits again).
  void RunSubtreeChild(const std::shared_ptr<const SubtreeBatch>& batch,
                       std::size_t child) {
    allow_split_ = false;
    const std::vector<VertexId> q = batch->ExclusionFor(child);
    const SizeVector r_sizes = ctx_.ClassSizes(Side::kLower, batch->r);
    std::span<const VertexId> p(batch->p);
    Branch(batch->big_l, batch->r, r_sizes, p.subspan(child), q);
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
    KernelStats* kstats = ctx_.kernel_stats();
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
    const std::span<const VertexId> x_nbrs = g.Neighbors(Side::kLower, x);
    IdVec new_l(arena, std::min(big_l.size(), x_nbrs.size()));
    new_l.set_size(IntersectInto(new_l.data(), big_l, x_nbrs, &arena, kstats));

    bool viable = !new_l.empty();
    if (search_.prune_small_l && new_l.size() < min_upper_) viable = false;

    // Both candidate filters probe the same L'; load its bitmap once and
    // count each neighbor list in O(deg) probes.
    BitsetView lbits;
    IdVec new_q(arena, q.size());
    IdVec q_full(arena, q.size());
    if (viable) {
      lbits = BitsetView::Load(arena, new_l.view());
      FilterCandidates(g, Side::kLower, q, new_l.view(), lbits,
                       CandidateThreshold(), &new_q, &q_full, kstats);
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
        if (all_covered) viable = false;
      }
    }
    if (!viable) return true;

    IdVec new_p(arena, p.size() - 1);
    IdVec p_full(arena, p.size() - 1);
    FilterCandidates(g, Side::kLower, p.subspan(1), new_l.view(), lbits,
                     CandidateThreshold(), &new_p, &p_full, kstats);

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
        MaybeEmit(new_l.view(), all_r.view(), all_sizes.view(),
                  ground_sizes.view());
        shortcut = true;
      }
    }

    if (!shortcut) {
      MaybeEmit(new_l.view(), new_r.view(), new_r_sizes.view(),
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
          if (!TrySplit(new_l.view(), new_r.view(), new_p.view(),
                        new_q.view())) {
            Recurse(new_l.view(), new_r.view(), new_r_sizes.view(),
                    new_p.view(), new_q.view());
          }
          if (ctx_.ShouldStop()) return false;
        }
      }
    }
    return !ctx_.budget().aborted();
  }

  // Depth-adaptive task splitting: a root task re-checks the pool queue
  // at every descend point of its serial walk and, at the first node
  // where the queue has run dry, hands that node's depth-1 children to
  // the pool (with the exact exclusion prefixes the serial loop would
  // have used) instead of walking them while other workers starve.
  // Split children never split again, and a split only fires on a
  // near-empty queue, so the task count stays bounded. Returns true when
  // the subtree was handed to the pool.
  bool TrySplit(std::span<const VertexId> big_l, std::span<const VertexId> r,
                std::span<const VertexId> p, std::span<const VertexId> q) {
    if (!allow_split_ || splitter_ == nullptr) return false;
    if (p.size() < 2 || !splitter_->ShouldSplit()) return false;
    ++ctx_.stats().split_subtrees;
    auto batch = std::make_shared<SubtreeBatch>();
    batch->big_l.assign(big_l.begin(), big_l.end());
    batch->r.assign(r.begin(), r.end());
    batch->p.assign(p.begin(), p.end());
    batch->q.assign(q.begin(), q.end());
    const FairBcemSearchOptions* search = &search_;
    const std::uint32_t min_upper = min_upper_;
    for (std::size_t child = 0; child < batch->p.size(); ++child) {
      splitter_->Submit(
          [batch, child, search, min_upper](SearchContext& ctx) {
            TraceSpan span(ctx.options().trace, "split");
            FairBcemEngine(ctx, *search, min_upper)
                .RunSubtreeChild(batch, child);
          });
    }
    return true;
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
  ContextSplitter* const splitter_;
  const std::uint32_t min_upper_;
  const AttrId num_attrs_;
  /// True only while the root node of a parallel task is being branched.
  bool allow_split_ = false;
};

}  // namespace

EnumStats FairBcemRun(const BipartiteGraph& g, const FairBicliqueParams& params,
                      std::uint32_t min_upper, const EnumOptions& options,
                      const FairBcemSearchOptions& search,
                      const EngineSink& sink) {
  if (g.NumUpper() == 0 || g.NumLower() == 0) {
    return {};
  }
  SpecFairnessPolicy policy(params.LowerSpec());
  SearchBudget local_budget(options);
  SearchBudget& budget = options.shared_budget != nullptr
                             ? *options.shared_budget
                             : local_budget;
  const std::vector<VertexId> upper_all = AllVertices(g, Side::kUpper);
  const std::vector<VertexId> candidates =
      MakeOrder(g, Side::kLower, options.ordering);

  EnumStats stats;
  const unsigned num_threads = ResolveNumThreads(options.num_threads);
  if (num_threads <= 1) {
    SearchContext ctx(g, options, policy, budget, sink, /*worker=*/0);
    FairBcemEngine(ctx, search, min_upper).Run(upper_all, candidates);
    stats = ctx.stats();
    stats.peak_struct_bytes =
        std::max(stats.peak_struct_bytes, ctx.arena().HighWaterBytes());
  } else {
    auto contexts = FanOutRootBranches<std::unique_ptr<SearchContext>>(
        num_threads, candidates.size(),
        [&](unsigned worker) {
          return std::make_unique<SearchContext>(g, options, policy, budget,
                                                 sink, worker);
        },
        [&](SearchContext& ctx, std::uint64_t task, ContextSplitter& splitter) {
          TraceSpan span(options.trace, "root");
          FairBcemEngine(ctx, search, min_upper, &splitter)
              .RunRootBranch(upper_all, candidates, task);
        });
    for (const auto& ctx : contexts) {
      MergeEnumStats(stats, ctx->stats());
      stats.peak_struct_bytes =
          std::max(stats.peak_struct_bytes, ctx->arena().HighWaterBytes());
    }
  }
  stats.budget_exhausted = budget.exhausted();
  stats.remaining_upper = g.NumUpper();
  stats.remaining_lower = g.NumLower();
  return stats;
}

}  // namespace fairbc
