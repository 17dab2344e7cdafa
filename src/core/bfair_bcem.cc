#include "core/bfair_bcem.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "core/fair_bcem_pp.h"
#include "core/parallel.h"
#include "core/search_context.h"
#include "fairness/combination.h"
#include "fairness/fair_set.h"

namespace fairbc {

namespace {

// One worker's memo of the upper side it walked last. The walk (its plan,
// hence its leaves and their order) and each leaf's N∩(l') depend on L'
// alone, not on R', so a later call with the same L' can replay them.
struct alignas(64) UpperWalkMemo {
  enum class Table {
    kNone,      // no complete table: the next call for `upper` records.
    kComplete,  // `hoods` holds every nonempty leaf of the walk.
    kOverCap,   // the walk passes the cap: calls for `upper` just fold.
  };

  bool Holds(std::span<const VertexId> ss_upper) const {
    return std::equal(upper.begin(), upper.end(), ss_upper.begin(),
                      ss_upper.end());
  }
  std::size_t Bytes() const {
    std::size_t targets = 0;
    for (const SizeVector& t : plan.targets) targets += t.capacity();
    return (upper.capacity() + plan.members.capacity() +
            plan.class_begin.capacity() + targets + hoods.capacity()) *
           sizeof(std::uint32_t);
  }

  std::vector<VertexId> upper;  // the key: L', ascending.
  FairSubsetPlan plan;          // valid whenever `upper` is.
  // The lower class sizes of N∩(l'), num_lower_attrs entries per nonempty
  // leaf l', in walk order.
  std::vector<std::uint32_t> hoods;
  Table table = Table::kNone;
  std::size_t peak_bytes = 0;
};

// Replays the walk of `memo` (Table::kComplete) with only the sorted
// prefix as state: `leaf(prefix, hood)` gets each nonempty leaf with its
// stored class sizes, and returns false to stop the walk.
template <typename LeafFn>
void ReplayUpperWalk(const UpperWalkMemo& memo, std::size_t num_attrs,
                     ScratchArena& arena, LeafFn& leaf) {
  ArenaScope scope(arena);
  struct Visitor {
    SortedPrefix prefix;
    const std::uint32_t* hood;
    std::size_t num_attrs;
    LeafFn& leaf;
    void Push(VertexId v) { prefix.Push(v); }
    void Pop(VertexId v) { prefix.Pop(v); }
    bool Leaf() {
      if (prefix.size() == 0) return true;
      const SizeSpan sizes(hood, num_attrs);
      hood += num_attrs;
      return leaf(prefix.ids(), sizes);
    }
  } visitor{SortedPrefix(arena.AllocU32(memo.plan.members.size())),
            memo.hoods.data(), num_attrs, leaf};
  WalkMaximalFairSubsets(memo.plan, visitor);
}

}  // namespace

EnumStats SingleSideRun(const BipartiteGraph& g,
                        const FairBicliqueParams& params,
                        std::uint32_t min_upper, const EnumOptions& options,
                        FairAlgo algo, const EngineSink& sink) {
  switch (algo) {
    case FairAlgo::kBcem:
      return FairBcemRun(g, params, min_upper, options,
                         FairBcemSearchOptions{}, sink);
    case FairAlgo::kNaive:
      return FairBcemRun(g, params, min_upper, options, NaiveSearchOptions(),
                         sink);
    case FairAlgo::kPlusPlus:
      break;
  }
  return FairBcemPpRun(g, params, min_upper, options, sink);
}

EnumStats BFairBcemRun(const BipartiteGraph& g,
                       const FairBicliqueParams& params,
                       const EnumOptions& options, FairAlgo algo,
                       const EngineSink& sink) {
  EnumStats stats;
  if (g.NumUpper() == 0 || g.NumLower() == 0) return stats;
  const FairnessSpec upper_spec = params.UpperSpec();
  // The bi-side model is the lower-side policy applied once more on the
  // upper side; both policies are shared read-only by every worker.
  const SpecFairnessPolicy lower_policy(params.LowerSpec());

  // Every bi-side fair biclique has at least num_upper_attrs * alpha upper
  // vertices, so the inner single-side search can use the tighter bound.
  const std::uint32_t min_upper = std::max<std::uint32_t>(
      1u, params.alpha * g.NumAttrs(Side::kUpper));

  // The inner engine delivers single-side fair bicliques from several
  // workers at once when options.num_threads != 1; this body keeps all
  // its state per call, per worker or atomic and forwards to `sink` under
  // the EngineSink contract (core/enumerate.h).
  const unsigned num_workers = ResolveNumThreads(options.num_threads);
  std::atomic<bool> aborted{false};
  WorkerCounters emitted(num_workers);
  std::vector<UpperWalkMemo> memos(num_workers);
  const std::size_t num_lower_attrs = g.NumAttrs(Side::kLower);
  const std::size_t cap_entries = kUpperWalkMemoBytes / sizeof(std::uint32_t);

  // Paper Alg. 9 body, run per single-side fair biclique (L', R'): walk the
  // maximal fair subsets l' of L'. R' ⊆ N∩(l') always holds (l' ⊆ L'), and
  // (l', R') is a bi-side fair biclique iff R' is maximal fair within
  // N∩(l')'s class sizes. Once a prefix's neighborhood has shrunk to R'
  // itself, every extension's is R' too and the fold stops intersecting.
  // The worker's memo replays the walk when L' repeats.
  EngineSink ss_sink = [&](const EmitWorker& worker,
                           std::span<const VertexId> ss_upper,
                           std::span<const VertexId> ss_lower) {
    // Every (l', R') derived here has l' ⊆ L', so (|L'|, |R'|) bounds it.
    if (options.topk != nullptr &&
        options.topk->CanPrune(ss_upper.size(), ss_lower.size())) {
      return true;
    }
    const SizeVector r_sizes = AttrSizes(g, Side::kLower, ss_lower);
    auto leaf = [&](std::span<const VertexId> upper, SizeSpan hood_sizes) {
      if (!lower_policy.MaximalWithin(r_sizes, hood_sizes)) return true;
      emitted.Add(worker.index);
      if (!sink(worker, upper, ss_lower)) {
        aborted.store(true, std::memory_order_relaxed);
        return false;
      }
      return true;
    };

    UpperWalkMemo& memo = memos[worker.index];
    if (!memo.Holds(ss_upper)) {
      memo.upper.assign(ss_upper.begin(), ss_upper.end());
      memo.plan = PlanMaximalFairSubsets(g, Side::kUpper, ss_upper, upper_spec);
      memo.table = UpperWalkMemo::Table::kNone;
    }
    if (memo.table == UpperWalkMemo::Table::kComplete) {
      ReplayUpperWalk(memo, num_lower_attrs, *worker.arena, leaf);
      return !aborted.load(std::memory_order_relaxed);
    }

    bool record = memo.table == UpperWalkMemo::Table::kNone;
    bool over_cap = false;
    bool stopped = false;
    memo.hoods.clear();
    SizeVector hood_sizes(num_lower_attrs);
    const std::span<const AttrId> lower_attrs = g.AttrArray(Side::kLower);
    WalkFairSubsetsFolded(
        g, Side::kUpper, memo.plan, ss_lower.size(), *worker.arena,
        [&](const PrefixFold& fold) {
          // Bicliques need nonempty sides.
          if (fold.prefix().empty()) return true;
          if (fold.AtFixedSize()) {
            hood_sizes = r_sizes;  // N∩(l') is R' itself.
          } else {
            std::fill(hood_sizes.begin(), hood_sizes.end(), 0);
            for (VertexId v : fold.neighborhood()) {
              ++hood_sizes[lower_attrs[v]];
            }
          }
          if (record) {
            const std::size_t size = memo.hoods.size() + num_lower_attrs;
            if (size > cap_entries) {
              record = false;
              over_cap = true;
              memo.hoods.clear();
            } else {
              // Grow geometrically, but never past the cap.
              if (size > memo.hoods.capacity()) {
                memo.hoods.reserve(std::min(
                    cap_entries, std::max(size, 2 * memo.hoods.capacity())));
              }
              memo.hoods.insert(memo.hoods.end(), hood_sizes.begin(),
                                hood_sizes.end());
            }
          }
          stopped = !leaf(fold.prefix(), hood_sizes);
          return !stopped;
        });
    // A walk the sink stopped leaves the table incomplete: never replay it.
    if (over_cap) {
      memo.table = UpperWalkMemo::Table::kOverCap;
    } else if (record && !stopped) {
      memo.table = UpperWalkMemo::Table::kComplete;
    }
    memo.peak_bytes = std::max(memo.peak_bytes, memo.Bytes());
    return !aborted.load(std::memory_order_relaxed);
  };

  stats = SingleSideRun(g, params, min_upper, options, algo, ss_sink);
  stats.num_results = emitted.Sum();
  // Memos live beside each worker's scratch: charge the largest one.
  std::size_t memo_bytes = 0;
  for (const UpperWalkMemo& memo : memos) {
    memo_bytes = std::max(memo_bytes, memo.peak_bytes);
  }
  stats.peak_struct_bytes += memo_bytes;
  return stats;
}

}  // namespace fairbc
