#ifndef FAIRBC_CORE_FAIR_BCEM_H_
#define FAIRBC_CORE_FAIR_BCEM_H_

#include <cstdint>

#include "core/enumerate.h"
#include "graph/bipartite_graph.h"

namespace fairbc {

/// Search-pruning switches of the FairBCEM branch-and-bound (paper Alg. 5
/// Observations 2/4/5). Turning them all off yields the paper's NSF
/// baseline; individual switches feed ablation A2 (fairbc_paper
/// ablation_rules). No switch changes the results, and turning one off
/// never shrinks the search (FairBcem.SearchOptionAblationsStayCorrect).
struct FairBcemSearchOptions {
  /// Kill a branch when |L'| < alpha (Observation 5, first half).
  /// Redundant next to filter_candidates_alpha: a node with |L'| < alpha
  /// keeps no candidate (none has alpha neighbors in L') and emits
  /// nothing, so turning this off alone leaves the node count unchanged.
  bool prune_small_l = true;
  /// Kill a subtree when every attribute class has an excluded vertex
  /// fully connected to L' (Observation 2).
  bool prune_excluded_full = true;
  /// Kill a branch when some class cannot reach beta from R' + P'
  /// (Observation 5, second half).
  bool prune_class_counts = true;
  /// Absorb the whole candidate set when it is fully connected and the
  /// union stays fair (Observation 4).
  bool absorb_full_candidates = true;
  /// Candidate filter threshold: keep v only if |N(v) ∩ L'| >= alpha.
  /// NSF relaxes this to 1 (a vertex with no common neighbor can never be
  /// in a biclique with nonempty L).
  bool filter_candidates_alpha = true;
};

inline FairBcemSearchOptions NaiveSearchOptions() {
  return FairBcemSearchOptions{false, false, false, false, false};
}

/// Core FairBCEM recursion (paper Alg. 5) on an already-pruned graph.
/// Emits every single-side fair biclique of `g` (lower side fair) whose
/// upper side has size >= min_upper, in `g`'s vertex ids. `min_upper`
/// is params.alpha for SSFBC; BFairBCEM passes a tighter bound.
/// Exposed for tests and for the bi-side engine; library users should go
/// through pipeline.h which wires in the graph reduction.
EnumStats FairBcemRun(const BipartiteGraph& g, const FairBicliqueParams& params,
                      std::uint32_t min_upper, const EnumOptions& options,
                      const FairBcemSearchOptions& search,
                      const EngineSink& sink);

}  // namespace fairbc

#endif  // FAIRBC_CORE_FAIR_BCEM_H_
