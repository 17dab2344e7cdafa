#include "core/search_context.h"

#include <algorithm>
#include <bit>
#include <memory>

#include "core/ordering.h"
#include "core/parallel.h"
#include "obs/trace.h"

namespace fairbc {

namespace {

// Frozen state of one split search node, shared by its child tasks.
struct SubtreeBatch {
  std::vector<VertexId> big_l;  // upper set L at the split node.
  std::vector<VertexId> r;      // partial pick R.
  std::vector<VertexId> p;      // remaining candidates, in branch order.
  std::vector<VertexId> q;      // exclusion set at the split node.
};

// Folds one worker's stats block into the run aggregate: counters and
// timings sum, peaks take the max, and budget_exhausted is sticky.
void MergeEnumStats(EnumStats& into, const EnumStats& worker) {
  into.num_results += worker.num_results;
  into.search_nodes += worker.search_nodes;
  into.maximal_bicliques_visited += worker.maximal_bicliques_visited;
  into.split_subtrees += worker.split_subtrees;
  into.prune_seconds += worker.prune_seconds;
  into.prune_construct_seconds += worker.prune_construct_seconds;
  into.prune_color_seconds += worker.prune_color_seconds;
  into.prune_peel_seconds += worker.prune_peel_seconds;
  into.enum_seconds += worker.enum_seconds;
  into.budget_exhausted = into.budget_exhausted || worker.budget_exhausted;
  into.remaining_upper = std::max(into.remaining_upper, worker.remaining_upper);
  into.remaining_lower = std::max(into.remaining_lower, worker.remaining_lower);
  into.peak_struct_bytes =
      std::max(into.peak_struct_bytes, worker.peak_struct_bytes);
  MergeKernelStats(into.kernels, worker.kernels);
}

}  // namespace

// The parallel half of RunSearch: one batch with a lane per context.
// Root branches are independent — branch i needs only the exclusion
// prefix candidates[0..i) — so each is one batch task; a root task whose
// subtree dominates hands its depth-1 children back to the batch once its
// queue runs dry (Split). A lane runs one task at a time, so its
// context's fan_out_ says which kind it runs.
class SearchFanOut {
 public:
  SearchFanOut(const std::vector<std::unique_ptr<SearchContext>>& contexts,
               const SearchTasks& tasks)
      : contexts_(contexts), tasks_(tasks) {}

  void Run(ThreadPool& pool, std::span<const VertexId> upper_all,
           std::span<const VertexId> candidates) {
    pool.ParallelFor(static_cast<unsigned>(contexts_.size()),
                     candidates.size(), [&](std::uint64_t root,
                                            unsigned lane) {
      SearchContext& ctx = *contexts_[lane];
      TraceSpan span(ctx.options().trace, "root");
      ctx.fan_out_ = this;
      tasks_.branch(ctx, upper_all, {}, candidates.subspan(root),
                    candidates.first(root));
    });
  }

  bool Split(SearchContext& ctx, std::span<const VertexId> big_l,
             std::span<const VertexId> r, std::span<const VertexId> p,
             std::span<const VertexId> q) {
    if (!ThreadPool::QueueNearlyDry()) return false;
    ++ctx.stats().split_subtrees;
    auto batch = std::make_shared<const SubtreeBatch>(SubtreeBatch{
        {big_l.begin(), big_l.end()},
        {r.begin(), r.end()},
        {p.begin(), p.end()},
        {q.begin(), q.end()}});
    for (std::size_t child = 0; child < p.size(); ++child) {
      ThreadPool::Submit([this, batch, child](unsigned lane) {
        SearchContext& child_ctx = *contexts_[lane];
        TraceSpan span(child_ctx.options().trace, "split");
        child_ctx.fan_out_ = nullptr;
        std::vector<VertexId> exclusion;
        exclusion.reserve(batch->q.size() + child);
        exclusion.insert(exclusion.end(), batch->q.begin(), batch->q.end());
        exclusion.insert(exclusion.end(), batch->p.begin(),
                         batch->p.begin() + child);
        tasks_.branch(child_ctx, batch->big_l, batch->r,
                      std::span<const VertexId>(batch->p).subspan(child),
                      exclusion);
      });
    }
    return true;
  }

 private:
  const std::vector<std::unique_ptr<SearchContext>>& contexts_;
  const SearchTasks& tasks_;
};

bool SearchContext::SplitOnPool(std::span<const VertexId> big_l,
                                std::span<const VertexId> r,
                                std::span<const VertexId> p,
                                std::span<const VertexId> q) {
  return fan_out_->Split(*this, big_l, r, p, q);
}

EnumStats RunSearch(const BipartiteGraph& g, const EnumOptions& options,
                    const FairnessPolicy* policy, const EngineSink& sink,
                    const SearchTasks& tasks) {
  if (g.NumUpper() == 0 || g.NumLower() == 0) return {};
  SearchBudget local_budget(options);
  SearchBudget& budget = options.shared_budget != nullptr
                             ? *options.shared_budget
                             : local_budget;
  const std::vector<VertexId> upper_all = AllVertices(g, Side::kUpper);
  const std::vector<VertexId> candidates =
      MakeOrder(g, Side::kLower, options.ordering);

  const unsigned num_threads = ResolveNumThreads(options.num_threads);
  std::vector<std::unique_ptr<SearchContext>> contexts;
  contexts.reserve(num_threads);
  for (unsigned worker = 0; worker < num_threads; ++worker) {
    contexts.push_back(std::make_unique<SearchContext>(g, options, policy,
                                                       budget, sink, worker));
  }
  if (num_threads <= 1) {
    tasks.serial(*contexts[0], upper_all, candidates);
  } else {
    SearchFanOut(contexts, tasks).Run(CallerPool(), upper_all, candidates);
  }

  EnumStats stats;
  for (const auto& ctx : contexts) {
    MergeEnumStats(stats, ctx->stats());
    stats.peak_struct_bytes =
        std::max(stats.peak_struct_bytes, ctx->ScratchBytes());
  }
  stats.budget_exhausted = budget.exhausted();
  stats.remaining_upper = g.NumUpper();
  stats.remaining_lower = g.NumLower();
  return stats;
}

std::optional<BranchCounts> SearchContext::OpenBranch(
    std::span<const VertexId> big_l, std::span<const VertexId> r, VertexId x,
    std::uint32_t min_upper) {
  const std::span<const VertexId> x_nbrs = g_.Neighbors(Side::kLower, x);
  if (r.empty() && big_l.size() == g_.NumUpper()) {
    if (x_nbrs.size() < min_upper) return std::nullopt;
    return BranchCounts{x_nbrs,
                        CandidateCounts(x_nbrs.size(), CountRootWedges(x))};
  }
  if (const std::optional<std::uint64_t> l_mask = RowMask(big_l)) {
    // L ⊆ N(x_root), so L ∩ N(x) = L ∩ (N(x) ∩ N(x_root)) = mask(L) & row[x],
    // and each set bit i decodes to the root's i-th neighbor: ascending.
    const std::uint64_t new_mask = *l_mask & root_rows_[x];
    const auto size = static_cast<std::uint32_t>(std::popcount(new_mask));
    if (size < min_upper) return std::nullopt;
    VertexId* out = arena_.AllocU32(size);
    std::size_t n = 0;
    for (std::uint64_t m = new_mask; m != 0; m &= m - 1) {
      out[n++] = row_upper_[std::countr_zero(m)];
    }
    return BranchCounts{{out, n},
                        CandidateCounts(n, root_rows_.data(), new_mask,
                                        &stats_.kernels),
                        *l_mask};
  }
  VertexId* out = arena_.AllocU32(std::min(big_l.size(), x_nbrs.size()));
  const std::span<const VertexId> new_l(
      out, IntersectInto(out, big_l, x_nbrs, &arena_, &stats_.kernels));
  if (new_l.size() < min_upper) return std::nullopt;
  return BranchCounts{new_l,
                      CandidateCounts(new_l.size(), g_,
                                      BitsetView::Load(arena_, new_l),
                                      &stats_.kernels)};
}

std::optional<std::uint64_t> SearchContext::RowMask(
    std::span<const VertexId> big_l) {
  if (row_upper_.empty() || big_l.size() > row_upper_.size()) {
    return std::nullopt;
  }
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < big_l.size(); ++i) {
    const std::uint8_t slot = root_slots_[big_l[i]];
    if (slot == kNoSlot) {
      stats_.kernels.steps += i + 1;
      return std::nullopt;
    }
    mask |= std::uint64_t{1} << slot;
  }
  stats_.kernels.steps += big_l.size();
  return mask;
}

std::uint32_t SearchContext::CountInL(const BranchCounts& branch,
                                      std::span<const VertexId> big_l,
                                      VertexId v) {
  switch (branch.counts.source()) {
    case CountSource::kRoot:
      return static_cast<std::uint32_t>(g_.Degree(Side::kLower, v));
    case CountSource::kRows:
      return branch.counts.CountRow(v, branch.l_mask);
    case CountSource::kProbe:
      break;
  }
  return IntersectSize(g_.Neighbors(Side::kLower, v), big_l, &arena_,
                       &stats_.kernels);
}

const std::uint32_t* SearchContext::CountRootWedges(VertexId x) {
  if (root_counts_.empty()) {
    root_counts_.assign(g_.NumLower(), 0);
    root_touched_.resize(g_.NumLower());
    root_rows_.assign(g_.NumLower(), 0);
    root_slots_.assign(g_.NumUpper(), kNoSlot);
  }
  std::uint32_t* counts = root_counts_.data();
  std::uint64_t* rows = root_rows_.data();
  VertexId* touched = root_touched_.data();
  for (std::size_t i = 0; i < num_touched_; ++i) counts[touched[i]] = 0;
  if (!row_upper_.empty()) {
    for (std::size_t i = 0; i < num_touched_; ++i) rows[touched[i]] = 0;
    for (VertexId u : row_upper_) root_slots_[u] = kNoSlot;
  }
  const std::span<const VertexId> x_nbrs = g_.Neighbors(Side::kLower, x);
  std::size_t num_touched = 0;
  std::uint64_t wedges = 0;
  if (x_nbrs.size() > kRowBits) {
    // Too wide for a row: counts only, and every row stays zero.
    row_upper_ = {};
    for (VertexId u : x_nbrs) {
      const std::span<const VertexId> nbrs = g_.Neighbors(Side::kUpper, u);
      wedges += nbrs.size();
      for (VertexId w : nbrs) {
        if (counts[w]++ == 0) touched[num_touched++] = w;
      }
    }
  } else {
    row_upper_ = x_nbrs;
    for (std::size_t i = 0; i < x_nbrs.size(); ++i) {
      const VertexId u = x_nbrs[i];
      root_slots_[u] = static_cast<std::uint8_t>(i);
      const std::uint64_t bit = std::uint64_t{1} << i;
      const std::span<const VertexId> nbrs = g_.Neighbors(Side::kUpper, u);
      wedges += nbrs.size();
      for (VertexId w : nbrs) {
        if (counts[w]++ == 0) touched[num_touched++] = w;
        rows[w] |= bit;
      }
    }
  }
  num_touched_ = num_touched;
  stats_.kernels.steps += wedges;
  return counts;
}

bool FilterCandidates(std::span<const VertexId> candidates,
                      const CandidateCounts& counts,
                      std::uint32_t keep_threshold, FullCandidates mode,
                      IdVec* kept, IdVec* full) {
  return counts.WithCounter([&](auto count) {
    for (VertexId v : candidates) {
      const std::uint32_t c = count(v);
      if (c == counts.upper_size()) {
        if (mode == FullCandidates::kStop) return false;
        full->push_back(v);
        if (mode == FullCandidates::kSeparate) continue;
      }
      if (c >= keep_threshold) kept->push_back(v);
    }
    return true;
  });
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
      arena_(arena),
      prefix_(arena.AllocU32(max_depth)) {
  levels_ = arena.AllocArray<std::span<const VertexId>>(max_depth + 1);
  buffers_ = arena.AllocArray<VertexId*>(max_depth + 1);
  levels_[0] = {};
  mark_ = arena.Save();
}

void PrefixFold::Push(VertexId v) {
  prefix_.Push(v);
  const std::size_t depth = prefix_.size();
  const std::span<const VertexId> nbrs = g_.Neighbors(side_, v);
  if (depth == 1) {
    arena_.Rewind(mark_);
    std::fill(buffers_, buffers_ + max_depth_ + 1, nullptr);
    levels_[1] = nbrs;
    return;
  }
  const std::span<const VertexId> parent = levels_[depth - 1];
  if (parent.size() == fixed_size_) {
    levels_[depth] = parent;
    return;
  }
  VertexId*& buffer = buffers_[depth];
  if (buffer == nullptr) buffer = arena_.AllocU32(levels_[1].size());
  levels_[depth] = {buffer, IntersectInto(buffer, parent, nbrs, &arena_)};
}

}  // namespace fairbc
