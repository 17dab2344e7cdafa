#include "core/bfair_bcem.h"

#include <algorithm>
#include <atomic>

#include "core/fair_bcem_pp.h"
#include "core/parallel.h"
#include "core/search_context.h"
#include "fairness/combination.h"
#include "fairness/fair_set.h"

namespace fairbc {

EnumStats BFairBcemRun(const BipartiteGraph& g,
                       const FairBicliqueParams& params,
                       const EnumOptions& options, SsEngine engine,
                       const EngineSink& sink) {
  EnumStats stats;
  if (g.NumUpper() == 0 || g.NumLower() == 0) return stats;
  if (options.topk != nullptr) {
    // ss_sink shrinks each SS biclique's upper side to its fair subsets
    // and regrows the lower side to each subset's common neighborhood —
    // the upper side of any derived result stays within the subtree's L,
    // but the lower side is only bounded by the whole (reduced) graph.
    options.topk->set_lower_cap(
        static_cast<std::uint32_t>(g.NumVertices(Side::kLower)));
  }
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
  std::atomic<bool> aborted{false};
  WorkerCounters emitted(ResolveNumThreads(options.num_threads));

  // Paper Alg. 9 body, run per single-side fair biclique (L', R'): walk the
  // maximal fair subsets l' of L'. R' ⊆ N∩(l') always holds (l' ⊆ L'), and
  // (l', R') is a bi-side fair biclique iff R' cannot be fairly extended
  // inside N∩(l'). Once a prefix's neighborhood has shrunk to R' itself,
  // every extension's is R' too and the fold stops intersecting.
  EngineSink ss_sink = [&](const EmitWorker& worker,
                           std::span<const VertexId> ss_upper,
                           std::span<const VertexId> ss_lower) {
    const SizeVector r_sizes = AttrSizes(g, Side::kLower, ss_lower);
    const bool maximal_in_r = lower_policy.MaximalWithin(r_sizes, r_sizes);
    SizeVector hood_sizes(g.NumAttrs(Side::kLower));
    const std::span<const AttrId> lower_attrs = g.AttrArray(Side::kLower);
    WalkFairSubsetsFolded(
        g, Side::kUpper, ss_upper, upper_spec, ss_lower.size(),
        *worker.arena, [&](const PrefixFold& fold) {
          // Bicliques need nonempty sides.
          if (fold.prefix().empty()) return true;
          bool maximal = maximal_in_r;
          if (!fold.AtFixedSize()) {
            std::fill(hood_sizes.begin(), hood_sizes.end(), 0);
            for (VertexId v : fold.neighborhood()) {
              ++hood_sizes[lower_attrs[v]];
            }
            maximal = lower_policy.MaximalWithin(r_sizes, hood_sizes);
          }
          if (!maximal) return true;
          emitted.Add(worker.index);
          if (!sink(worker, fold.prefix(), ss_lower)) {
            aborted.store(true, std::memory_order_relaxed);
            return false;
          }
          return true;
        });
    return !aborted.load(std::memory_order_relaxed);
  };

  switch (engine) {
    case SsEngine::kFairBcem:
      stats = FairBcemRun(g, params, min_upper, options,
                          FairBcemSearchOptions{}, ss_sink);
      break;
    case SsEngine::kFairBcemPlusPlus:
      stats = FairBcemPpRun(g, params, min_upper, options, ss_sink);
      break;
    case SsEngine::kNaive:
      stats = FairBcemRun(g, params, min_upper, options, NaiveSearchOptions(),
                          ss_sink);
      break;
  }
  stats.num_results = emitted.Sum();
  return stats;
}

}  // namespace fairbc
