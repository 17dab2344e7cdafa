#ifndef FAIRBC_CORE_BFAIR_BCEM_H_
#define FAIRBC_CORE_BFAIR_BCEM_H_

#include <cstddef>

#include "core/enumerate.h"
#include "core/fair_bcem.h"
#include "graph/bipartite_graph.h"

namespace fairbc {

/// Which single-side engine drives the bi-side enumeration (paper Alg. 9:
/// BFairBCEM uses FairBCEM, BFairBCEM++ uses FairBCEM++, BNSF uses the
/// unpruned search).
enum class SsEngine {
  kFairBcem,
  kFairBcemPlusPlus,
  kNaive,
};

/// Bytes of leaf entries one worker's upper-walk memo may hold (see
/// BFairBcemRun). An upper side whose walk needs more is folded afresh on
/// every call.
inline constexpr std::size_t kUpperWalkMemoBytes = std::size_t{256} << 10;

/// Bi-side fair biclique enumeration (paper Alg. 9) on an already-pruned
/// graph: enumerate single-side fair bicliques (L', R'), then for every
/// maximal fair subset l' of L' (Combination on the upper side) emit
/// (l', R') iff R' is a maximal fair subset of the common neighborhood of
/// l'. With params.theta > 0 this is BFairBCEMPro++. Library users should
/// go through pipeline.h which wires in the BCFCore reduction.
///
/// Each worker memoizes the walk of the last upper side it expanded: the
/// walk plan and, per leaf l' in walk order, the lower class sizes of
/// N∩(l'). Consecutive single-side bicliques with the same L' (FairBCEM++
/// cuts one maximal biclique into many) then replay the walk without a
/// single intersection. The table is capped at kUpperWalkMemoBytes per
/// worker; its bytes count toward EnumStats::peak_struct_bytes.
EnumStats BFairBcemRun(const BipartiteGraph& g,
                       const FairBicliqueParams& params,
                       const EnumOptions& options, SsEngine engine,
                       const EngineSink& sink);

}  // namespace fairbc

#endif  // FAIRBC_CORE_BFAIR_BCEM_H_
