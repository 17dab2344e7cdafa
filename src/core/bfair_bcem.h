#ifndef FAIRBC_CORE_BFAIR_BCEM_H_
#define FAIRBC_CORE_BFAIR_BCEM_H_

#include <cstddef>

#include "core/enumerate.h"
#include "core/fair_bcem.h"
#include "graph/bipartite_graph.h"

namespace fairbc {

/// The single-side engine `algo` names, on an already-pruned graph:
/// FairBcemPpRun for kPlusPlus, FairBcemRun for kBcem and, with
/// NaiveSearchOptions(), for kNaive. It is RunEnumeration's SSFBC engine
/// and the inner engine of BFairBcemRun (paper Alg. 9: BFairBCEM uses
/// FairBCEM, BFairBCEM++ uses FairBCEM++, BNSF the unpruned search).
EnumStats SingleSideRun(const BipartiteGraph& g,
                        const FairBicliqueParams& params,
                        std::uint32_t min_upper, const EnumOptions& options,
                        FairAlgo algo, const EngineSink& sink);

/// Bytes of leaf entries one worker's upper-walk memo may hold (see
/// BFairBcemRun). An upper side whose walk needs more is folded afresh on
/// every call.
inline constexpr std::size_t kUpperWalkMemoBytes = std::size_t{256} << 10;

/// Bi-side fair biclique enumeration (paper Alg. 9) on an already-pruned
/// graph: enumerate single-side fair bicliques (L', R') with the
/// SingleSideRun engine `algo` names, then for every maximal fair subset
/// l' of L' (Combination on the upper side) emit (l', R') iff R' is a
/// maximal fair subset of the common neighborhood of l'. With
/// params.theta > 0 this is BFairBCEMPro++. Library users should go
/// through pipeline.h which wires in the BCFCore reduction.
///
/// Each worker memoizes the walk of the last upper side it expanded: the
/// walk plan and, per leaf l' in walk order, the lower class sizes of
/// N∩(l'). Consecutive single-side bicliques with the same L' (FairBCEM++
/// cuts one maximal biclique into many) then replay the walk without a
/// single intersection. The table is capped at kUpperWalkMemoBytes per
/// worker; its bytes count toward EnumStats::peak_struct_bytes.
EnumStats BFairBcemRun(const BipartiteGraph& g,
                       const FairBicliqueParams& params,
                       const EnumOptions& options, FairAlgo algo,
                       const EngineSink& sink);

}  // namespace fairbc

#endif  // FAIRBC_CORE_BFAIR_BCEM_H_
