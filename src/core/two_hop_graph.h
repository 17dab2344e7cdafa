#ifndef FAIRBC_CORE_TWO_HOP_GRAPH_H_
#define FAIRBC_CORE_TWO_HOP_GRAPH_H_

#include <cstdint>

#include "graph/bipartite_graph.h"
#include "graph/unipartite_graph.h"

namespace fairbc {

class ReductionContext;

/// Paper Alg. 3 (Construct2HopGraph): connects two alive vertices of
/// `fair_side` iff they share at least `alpha` alive common neighbors.
///
/// A half-wedge counter sweep: each alive `v` counts 2-hop paths only to
/// alive `w < v`, stopping every sorted neighbor list at the first
/// `w >= v`, so each pair is counted once. A serial O(|E_H|) mirror pass
/// then writes every satisfying pair to both endpoints. The cost is
/// O(sum over alive v of alive-deg^2 / 2) plus O(n + |E_H|); CFCore and
/// BCFCore call it on the compacted FCore/BFCore survivors, so `n` is the
/// survivor count, not the parent graph's.
///
/// With a parallel `ReductionContext` the sweeps shard by vertex range
/// across lanes (each lane sweeps with private counter/flag
/// scratch from the context) before the mirror pass. The output is a pure
/// function of (g, masks, alpha) — byte identical at every thread count,
/// including the serial null-context path.
UnipartiteGraph Construct2HopGraph(const BipartiteGraph& g, Side fair_side,
                                   std::uint32_t alpha, const SideMasks& masks,
                                   ReductionContext* ctx = nullptr);

/// Paper Alg. 8 (BiConstruct2HopGraph): connects two alive vertices iff
/// they share at least `alpha` alive common neighbors *of every opposite-
/// side attribute class* (the bi-side condition of Def. 4(1)). Same
/// sharded parallel scheme and determinism guarantee as above.
UnipartiteGraph BiConstruct2HopGraph(const BipartiteGraph& g, Side fair_side,
                                     std::uint32_t alpha,
                                     const SideMasks& masks,
                                     ReductionContext* ctx = nullptr);

}  // namespace fairbc

#endif  // FAIRBC_CORE_TWO_HOP_GRAPH_H_
