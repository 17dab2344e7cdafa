#ifndef FAIRBC_CORE_MBEA_H_
#define FAIRBC_CORE_MBEA_H_

#include <cstdint>

#include "core/enumerate.h"
#include "graph/bipartite_graph.h"

namespace fairbc {

/// Receives one maximal biclique as two ascending spans, valid only during
/// the call. Return false to abort the enumeration. May be invoked
/// concurrently from worker threads when MbeaConfig::num_threads != 1 (the
/// EngineSink contract, core/enumerate.h).
using MaximalBicliqueSink = EngineSink;

/// Size thresholds and budgets for maximal biclique enumeration.
struct MbeaConfig {
  /// Branch-kill + emission threshold on |L| (>= 1 always enforced).
  std::uint32_t min_upper = 1;
  /// Emission threshold on |R| (prunes branches via |R|+|P|).
  std::uint32_t min_lower_total = 1;
  /// Per-lower-attribute-class threshold (the `R_a >= beta` guard of the
  /// FairBCEM++ substrate); prunes branches via per-class |R_a|+|P_a|.
  std::uint32_t min_lower_per_attr = 0;
  VertexOrdering ordering = VertexOrdering::kDegreeDesc;
  std::uint64_t node_budget = 0;       ///< 0 = unlimited search nodes.
  double time_budget_seconds = 0.0;    ///< 0 = unlimited wall clock.
  /// Root-branch fan-out workers (same semantics as
  /// EnumOptions::num_threads: 1 = exact serial traversal, 0 = all cores).
  unsigned num_threads = 1;
  /// Optional span recorder (EnumOptions::trace); root/split task spans.
  TraceRecorder* trace = nullptr;
  /// Optional top-k branch-and-bound prune state (EnumOptions::topk):
  /// subtrees whose (|L|, |R| + |P|) shape cannot reach the published
  /// k-th best are cut. Callers whose sink re-expands the upper side of
  /// emitted bicliques (the FairBCEM++ fair-subset pass) must install an
  /// upper cap on the bound first (TopKPruneBound::set_upper_cap).
  const TopKPruneBound* topk = nullptr;
  /// Optional caller-owned budget (EnumOptions::shared_budget contract).
  SearchBudget* shared_budget = nullptr;
};

struct MbeaStats {
  std::uint64_t search_nodes = 0;
  std::uint64_t emitted = 0;
  /// Subtrees handed back to the pool by depth-adaptive task splitting.
  std::uint64_t split_subtrees = 0;
  bool budget_exhausted = false;
  /// Intersection-kernel telemetry summed over the run's workers.
  KernelStats kernels;
  /// Largest per-worker recursion-arena high-water mark (bytes).
  std::size_t arena_high_water_bytes = 0;
};

/// iMBEA-style maximal biclique enumeration (the MBEA++ substrate of
/// paper Alg. 6): branch on one lower vertex at a time, absorb every
/// candidate fully connected to the shrunk L, and kill branches whose L
/// was already covered (an excluded vertex fully connected to L). Every
/// maximal biclique (L, R) of `g` with nonempty sides, |L| >= min_upper,
/// |R| >= min_lower_total and per-class sizes >= min_lower_per_attr is
/// emitted exactly once.
MbeaStats EnumerateMaximalBicliques(const BipartiteGraph& g,
                                    const MbeaConfig& config,
                                    const MaximalBicliqueSink& sink);

}  // namespace fairbc

#endif  // FAIRBC_CORE_MBEA_H_
