#include "core/fair_bcem_pp.h"

#include <algorithm>
#include <atomic>

#include "common/timer.h"
#include "core/mbea.h"
#include "core/parallel.h"
#include "core/search_context.h"
#include "fairness/combination.h"
#include "fairness/fair_set.h"

namespace fairbc {

EnumStats FairBcemPpRun(const BipartiteGraph& g,
                        const FairBicliqueParams& params,
                        std::uint32_t min_upper, const EnumOptions& options,
                        const EngineSink& sink) {
  const FairnessSpec spec = params.LowerSpec();

  // The substrate may deliver maximal bicliques from several workers at
  // once (options.num_threads != 1), so everything the per-biclique
  // post-processing shares is atomic or per worker; `sink` follows the
  // EngineSink contract (core/enumerate.h).
  Deadline deadline(options.time_budget_seconds);
  std::atomic<bool> aborted{false};
  std::atomic<bool> subset_budget_exhausted{false};
  WorkerCounters num_results(ResolveNumThreads(options.num_threads));

  auto emit = [&](const EmitWorker& worker, std::span<const VertexId> upper,
                  std::span<const VertexId> lower) {
    num_results.Add(worker.index);
    if (!sink(worker, upper, lower)) {
      aborted.store(true, std::memory_order_relaxed);
    }
    return !aborted.load(std::memory_order_relaxed);
  };

  EngineSink mb_sink = [&](const EmitWorker& worker,
                           std::span<const VertexId> upper,
                           std::span<const VertexId> lower) {
    // Every result cut from (L, R) below is (L, S) with S ⊆ R.
    if (options.topk != nullptr &&
        options.topk->CanPrune(upper.size(), lower.size())) {
      return true;
    }
    SizeVector sizes = AttrSizes(g, Side::kLower, lower);
    if (IsFeasibleVector(sizes, spec)) {
      // A fair closure is its own unique maximal fair subset and its
      // common neighborhood is exactly `upper` (closure property), so
      // (upper, lower) is a single-side fair biclique directly.
      return emit(worker, upper, lower);
    }
    // Paper Alg. 6 lines 25-28: enumerate the maximal fair subsets S of R
    // and keep those whose common neighborhood is exactly L. S ⊆ R gives
    // N∩(S) ⊇ L, so equal size means equality — and the fold stops
    // intersecting at the first prefix whose neighborhood is L.
    WalkFairSubsetsFolded(
        g, Side::kLower, PlanMaximalFairSubsets(g, Side::kLower, lower, spec),
        upper.size(), *worker.arena, [&](const PrefixFold& fold) {
          if (deadline.Expired()) {
            subset_budget_exhausted.store(true, std::memory_order_relaxed);
            return false;
          }
          if (fold.prefix().empty() || !fold.AtFixedSize()) return true;
          return emit(worker, upper, fold.prefix());
        });
    return !aborted.load(std::memory_order_relaxed) &&
           !subset_budget_exhausted.load(std::memory_order_relaxed);
  };

  // The substrate counts the maximal bicliques it delivered to mb_sink
  // (maximal_bicliques_visited); the results are the fair ones emitted.
  const std::uint32_t min_lower_total =
      std::max<std::uint32_t>(1u, params.beta * g.NumAttrs(Side::kLower));
  EnumStats stats = EnumerateMaximalBicliques(
      g, min_upper, min_lower_total, params.beta, options, mb_sink);
  stats.num_results = num_results.Sum();
  stats.budget_exhausted =
      stats.budget_exhausted ||
      subset_budget_exhausted.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace fairbc
