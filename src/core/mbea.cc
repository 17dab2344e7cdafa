#include "core/mbea.h"

#include <algorithm>
#include <memory>
#include <span>

#include "core/kernels.h"
#include "core/ordering.h"
#include "core/parallel.h"
#include "core/search_context.h"
#include "obs/trace.h"

namespace fairbc {

namespace {

class MbeaEngine;
using EngineSplitter = SubtreeSplitter<std::unique_ptr<MbeaEngine>>;

// iMBEA recursion on the shared budget layer. One instance per worker;
// stats_ is worker-local, the SearchBudget is shared by every worker of
// the run. Root branches are independent: branch i only needs the
// exclusion prefix candidates[0..i), so the parallel driver hands each
// root to a pool worker; a dominating root subtree re-submits its depth-1
// children once the pool queue runs dry (depth-adaptive splitting). The
// serial path (Run) keeps the original traversal — including the
// "exhausted candidate" skip, which is a pure work-saving: a skipped
// branch re-run in isolation is killed by the excluded-vertex check, so
// both the root fan-out and the splitter may safely ignore it.
//
// Recursion state (shrunk L, filtered candidates, exclusion lists,
// class counters) lives in the worker's ScratchArena — one ArenaScope
// per frame, fixed capacities bounded by the parent sets — so the search
// never heap-allocates; emissions hand the sink spans into that arena.
class MbeaEngine {
 public:
  MbeaEngine(const BipartiteGraph& g, const MbeaConfig& config,
             SearchBudget& budget, const MaximalBicliqueSink& sink,
             unsigned worker)
      : g_(g),
        config_(config),
        budget_(budget),
        sink_(sink),
        num_lower_attrs_(g.NumAttrs(Side::kLower)),
        worker_{worker, &arena_} {}

  const MbeaStats& stats() const { return stats_; }
  std::size_t ArenaHighWaterBytes() const { return arena_.HighWaterBytes(); }

  void Run(std::span<const VertexId> upper_all,
           std::span<const VertexId> candidates) {
    Recurse(upper_all, {}, candidates, {});
  }

  void RunRootBranch(std::span<const VertexId> upper_all,
                     std::span<const VertexId> candidates, std::size_t root,
                     EngineSplitter* splitter) {
    splitter_ = splitter;
    allow_split_ = splitter != nullptr;
    ArenaScope frame(arena_);
    IdVec unused_exhausted(arena_, candidates.size());
    Branch(upper_all, {}, candidates.subspan(root), candidates.first(root),
           &unused_exhausted);
  }

  /// One depth-1 child of a split subtree (never splits again).
  void RunSubtreeChild(const std::shared_ptr<const SubtreeBatch>& batch,
                       std::size_t child) {
    allow_split_ = false;
    const std::vector<VertexId> q = batch->ExclusionFor(child);
    std::span<const VertexId> p(batch->p);
    ArenaScope frame(arena_);
    IdVec unused_exhausted(arena_, p.size());
    Branch(batch->big_l, batch->r, p.subspan(child), q, &unused_exhausted);
  }

 private:
  std::uint32_t MinUpper() const { return std::max(config_.min_upper, 1u); }

  void CountNode() {
    ++stats_.search_nodes;
    budget_.CountNode();
  }

  // Processes the branch at p[0] (exclusion set q) and recurses into its
  // subtree. Absorbed candidates with no neighbors outside the shrunk L
  // are appended to `exhausted` (caller-allocated, capacity >= |p|): the
  // caller may drop them from its remaining candidates (their branches
  // are provably redundant). Returns false when the whole search must
  // stop.
  bool Branch(std::span<const VertexId> big_l, std::span<const VertexId> r,
              std::span<const VertexId> p, std::span<const VertexId> q,
              IdVec* exhausted) {
    if (budget_.OverBudget()) return false;
    CountNode();
    KernelStats* kstats = &stats_.kernels;
    const VertexId x = p.front();

    // Top-k branch-and-bound: descendants stay within (|L|, |R| + |P|)
    // (or the caller-installed side caps — see MbeaConfig::topk). Cutting
    // returns true: siblings continue, only this subtree dies.
    if (config_.topk != nullptr &&
        config_.topk->CanPrune(big_l.size(), r.size() + p.size())) {
      return true;
    }

    ArenaScope frame(arena_);
    const std::span<const VertexId> x_nbrs = g_.Neighbors(Side::kLower, x);
    IdVec new_l(arena_, std::min(big_l.size(), x_nbrs.size()));
    new_l.set_size(
        IntersectInto(new_l.data(), big_l, x_nbrs, &arena_, kstats));
    bool viable = new_l.size() >= MinUpper();

    // Both the exclusion scan and the candidate scan intersect against
    // the same L'; load its bitmap once and probe each neighbor list in
    // O(deg).
    BitsetView lbits;
    if (viable) lbits = BitsetView::Load(arena_, new_l.view());

    IdVec new_q(arena_, q.size());
    if (viable) {
      for (VertexId v : q) {
        std::uint32_t c = lbits.CountHits(g_.Neighbors(Side::kLower, v),
                                          kstats);
        if (c == new_l.size()) {
          // An excluded vertex is fully connected: this L (and every L
          // of the subtree) was already enumerated in v's branch.
          viable = false;
          break;
        }
        if (c >= MinUpper()) new_q.push_back(v);
      }
    }
    if (!viable) return true;

    IdVec new_r(arena_, r.size() + p.size());
    for (VertexId v : r) new_r.push_back(v);
    new_r.push_back(x);
    IdVec new_p(arena_, p.size() - 1);
    for (std::size_t i = 1; i < p.size(); ++i) {
      const VertexId v = p[i];
      auto nbrs = g_.Neighbors(Side::kLower, v);
      std::uint32_t c = lbits.CountHits(nbrs, kstats);
      if (c == new_l.size()) {
        new_r.push_back(v);  // absorb: fully connected to new_l.
        if (IntersectSize(nbrs, big_l, &arena_, kstats) == c) {
          exhausted->push_back(v);
        }
      } else if (c >= MinUpper()) {
        new_p.push_back(v);
      }
    }
    std::sort(new_r.begin(), new_r.end());

    // Emit (new_l, new_r) if it passes the size filters.
    if (new_r.size() >= config_.min_lower_total) {
      bool classes_ok = true;
      if (config_.min_lower_per_attr > 0) {
        CountVec sizes = CountVec::Zero(arena_, num_lower_attrs_);
        for (VertexId v : new_r) ++sizes[g_.Attr(Side::kLower, v)];
        for (auto s : sizes) {
          if (s < config_.min_lower_per_attr) {
            classes_ok = false;
            break;
          }
        }
      }
      if (classes_ok) {
        ++stats_.emitted;
        if (!sink_(worker_, new_l.view(), new_r.view())) {
          budget_.Abort();
          return false;
        }
      }
    }

    // Recurse if the candidate pool can still reach the thresholds.
    if (!new_p.empty() &&
        new_r.size() + new_p.size() >= config_.min_lower_total) {
      bool reachable = true;
      if (config_.min_lower_per_attr > 0) {
        CountVec sizes = CountVec::Zero(arena_, num_lower_attrs_);
        for (VertexId v : new_r) ++sizes[g_.Attr(Side::kLower, v)];
        for (VertexId v : new_p) ++sizes[g_.Attr(Side::kLower, v)];
        for (auto s : sizes) {
          if (s < config_.min_lower_per_attr) {
            reachable = false;
            break;
          }
        }
      }
      if (reachable) {
        if (!TrySplit(new_l.view(), new_r.view(), new_p.view(),
                      new_q.view())) {
          Recurse(new_l.view(), new_r.view(), new_p.view(), new_q.view());
        }
        if (budget_.OverBudget()) return false;
      }
    }
    return true;
  }

  // Depth-adaptive task splitting (see FairBcemEngine::TrySplit): a root
  // task re-checks the queue at every descend point and hands the first
  // dry-queue node's depth-1 children to the pool. The split children
  // skip the exhausted-candidate pruning of the serial Recurse loop,
  // which is safe for the same reason the root fan-out may skip it (see
  // the class comment).
  bool TrySplit(std::span<const VertexId> big_l, std::span<const VertexId> r,
                std::span<const VertexId> p, std::span<const VertexId> q) {
    if (!allow_split_ || splitter_ == nullptr) return false;
    if (p.size() < 2 || !splitter_->ShouldSplit()) return false;
    ++stats_.split_subtrees;
    auto batch = std::make_shared<SubtreeBatch>();
    batch->big_l.assign(big_l.begin(), big_l.end());
    batch->r.assign(r.begin(), r.end());
    batch->p.assign(p.begin(), p.end());
    batch->q.assign(q.begin(), q.end());
    for (std::size_t child = 0; child < batch->p.size(); ++child) {
      splitter_->Submit([batch, child, trace = config_.trace](
                            MbeaEngine& engine) {
        TraceSpan span(trace, "split");
        engine.RunSubtreeChild(batch, child);
      });
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
    ArenaScope frame(arena_);
    IdVec q(arena_, q_in.size() + p_in.size());
    for (VertexId v : q_in) q.push_back(v);
    IdVec bufs[2] = {IdVec(arena_, p_in.size()), IdVec(arena_, p_in.size())};
    for (VertexId v : p_in) bufs[0].push_back(v);
    IdVec exhausted(arena_, p_in.size());
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

  const BipartiteGraph& g_;
  const MbeaConfig& config_;
  SearchBudget& budget_;
  const MaximalBicliqueSink& sink_;
  const AttrId num_lower_attrs_;
  MbeaStats stats_;
  ScratchArena arena_;
  const EmitWorker worker_;
  EngineSplitter* splitter_ = nullptr;
  /// True only while the root node of a parallel task is being branched.
  bool allow_split_ = false;
};

}  // namespace

MbeaStats EnumerateMaximalBicliques(const BipartiteGraph& g,
                                    const MbeaConfig& config,
                                    const MaximalBicliqueSink& sink) {
  if (g.NumUpper() == 0 || g.NumLower() == 0) return {};
  SearchBudget local_budget(config.node_budget, config.time_budget_seconds);
  SearchBudget& budget = config.shared_budget != nullptr
                             ? *config.shared_budget
                             : local_budget;
  const std::vector<VertexId> upper_all = AllVertices(g, Side::kUpper);
  const std::vector<VertexId> candidates =
      MakeOrder(g, Side::kLower, config.ordering);

  MbeaStats stats;
  const unsigned num_threads = ResolveNumThreads(config.num_threads);
  if (num_threads <= 1) {
    MbeaEngine engine(g, config, budget, sink, /*worker=*/0);
    engine.Run(upper_all, candidates);
    stats = engine.stats();
    stats.arena_high_water_bytes = engine.ArenaHighWaterBytes();
  } else {
    auto engines = FanOutRootBranches<std::unique_ptr<MbeaEngine>>(
        num_threads, candidates.size(),
        [&](unsigned worker) {
          return std::make_unique<MbeaEngine>(g, config, budget, sink, worker);
        },
        [&](MbeaEngine& engine, std::uint64_t task, EngineSplitter& splitter) {
          TraceSpan span(config.trace, "root");
          engine.RunRootBranch(upper_all, candidates, task, &splitter);
        });
    for (const auto& engine : engines) {
      stats.search_nodes += engine->stats().search_nodes;
      stats.emitted += engine->stats().emitted;
      stats.split_subtrees += engine->stats().split_subtrees;
      MergeKernelStats(stats.kernels, engine->stats().kernels);
      stats.arena_high_water_bytes =
          std::max(stats.arena_high_water_bytes, engine->ArenaHighWaterBytes());
    }
  }
  stats.budget_exhausted = budget.exhausted();
  return stats;
}

}  // namespace fairbc
