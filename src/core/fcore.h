#ifndef FAIRBC_CORE_FCORE_H_
#define FAIRBC_CORE_FCORE_H_

#include <cstdint>

#include "graph/bipartite_graph.h"

namespace fairbc {

class ReductionContext;

/// Fair α-β core pruning (paper Alg. 1, FCore).
///
/// Computes the unique maximal subgraph in which every surviving upper
/// vertex has attribute degree >= beta for *every* lower attribute class
/// and every surviving lower vertex has degree >= alpha. By Lemma 1 every
/// single-side fair biclique lives inside it. Linear-time peeling
/// (Batagelj–Zaversnik style). Returns alive masks over `g`.
///
/// All peeling entry points take an optional `ReductionContext`: a null
/// context (or a serial one) runs the exact serial peel
/// (deterministic traversal order); a parallel context runs
/// frontier-based bulk-synchronous rounds with atomic degree counters.
/// The surviving vertex set is identical either way — the core is the
/// unique maximal fixpoint, so peel order cannot change it. Wall-clock
/// accumulates into the context's peel phase timer.
SideMasks FCore(const BipartiteGraph& g, std::uint32_t alpha,
                std::uint32_t beta, ReductionContext* ctx = nullptr);

/// Bi-fair α-β core pruning (paper Def. 13, BFCore): like FCore but the
/// lower side also uses attribute degrees — every surviving lower vertex
/// needs attribute degree >= alpha for every *upper* attribute class
/// (Lemma 3: every bi-side fair biclique lives inside it).
SideMasks BFCore(const BipartiteGraph& g, std::uint32_t alpha,
                 std::uint32_t beta, ReductionContext* ctx = nullptr);

/// In-place variants restricted to the already-alive vertices in `masks`
/// (used by CFCore/BCFCore which interleave core pruning with colorful
/// pruning, paper Alg. 2 lines 1 and 27).
void FCoreInPlace(const BipartiteGraph& g, std::uint32_t alpha,
                  std::uint32_t beta, SideMasks& masks,
                  ReductionContext* ctx = nullptr);
void BFCoreInPlace(const BipartiteGraph& g, std::uint32_t alpha,
                   std::uint32_t beta, SideMasks& masks,
                   ReductionContext* ctx = nullptr);

/// Reference implementation used by tests: repeatedly delete violating
/// vertices until fixpoint, quadratic but obviously correct.
SideMasks FCoreNaive(const BipartiteGraph& g, std::uint32_t alpha,
                     std::uint32_t beta, bool bi_side);

}  // namespace fairbc

#endif  // FAIRBC_CORE_FCORE_H_
