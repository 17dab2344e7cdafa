#ifndef FAIRBC_CORE_MBEA_H_
#define FAIRBC_CORE_MBEA_H_

#include <cstdint>

#include "core/enumerate.h"
#include "graph/bipartite_graph.h"

namespace fairbc {

/// iMBEA-style maximal biclique enumeration (the MBEA++ substrate of
/// paper Alg. 6): branch on one lower vertex at a time, absorb every
/// candidate fully connected to the shrunk L, and kill branches whose L
/// was already covered (an excluded vertex fully connected to L). Every
/// maximal biclique (L, R) of `g` with nonempty sides, |L| >= min_upper,
/// |R| >= min_lower_total and per-class sizes >= min_lower_per_attr is
/// emitted exactly once.
///
/// `min_upper` also kills branches whose L shrank below it; the two lower
/// thresholds prune branches via |R| + |P| and per-class |R_a| + |P_a|
/// (the `R_a >= beta` guard of the FairBCEM++ substrate). `options`
/// supplies ordering, budgets, threads, trace, shared budget and top-k
/// bound exactly as for the other engines; `pruning` is not read. A
/// subtree is cut on its (|L|, |R| + |P|) shape, so a sink that derives
/// results from an emitted biclique must not grow either side of it.
/// num_results counts the emitted bicliques, and so does
/// maximal_bicliques_visited.
EnumStats EnumerateMaximalBicliques(const BipartiteGraph& g,
                                    std::uint32_t min_upper,
                                    std::uint32_t min_lower_total,
                                    std::uint32_t min_lower_per_attr,
                                    const EnumOptions& options,
                                    const EngineSink& sink);

}  // namespace fairbc

#endif  // FAIRBC_CORE_MBEA_H_
