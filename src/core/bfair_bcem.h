#ifndef FAIRBC_CORE_BFAIR_BCEM_H_
#define FAIRBC_CORE_BFAIR_BCEM_H_

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

/// Bi-side fair biclique enumeration (paper Alg. 9) on an already-pruned
/// graph: enumerate single-side fair bicliques (L', R'), then for every
/// maximal fair subset l' of L' (Combination on the upper side) emit
/// (l', R') iff R' is a maximal fair subset of the common neighborhood of
/// l'. With params.theta > 0 this is BFairBCEMPro++. Library users should
/// go through pipeline.h which wires in the BCFCore reduction.
EnumStats BFairBcemRun(const BipartiteGraph& g,
                       const FairBicliqueParams& params,
                       const EnumOptions& options, SsEngine engine,
                       const EngineSink& sink);

}  // namespace fairbc

#endif  // FAIRBC_CORE_BFAIR_BCEM_H_
