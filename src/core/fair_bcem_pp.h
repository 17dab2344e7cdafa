#ifndef FAIRBC_CORE_FAIR_BCEM_PP_H_
#define FAIRBC_CORE_FAIR_BCEM_PP_H_

#include <cstdint>

#include "core/enumerate.h"
#include "graph/bipartite_graph.h"

namespace fairbc {

/// FairBCEM++ engine (paper Alg. 6) on an already-pruned graph: enumerate
/// maximal bicliques with the thresholded iMBEA substrate, then emit each
/// biclique's maximal fair subsets whose common neighborhood is exactly L
/// (the paper's Combination + line-28 check). With params.theta > 0 this
/// is FairBCEMPro++ (CombinationPro). Library users should go through
/// pipeline.h which wires in the graph reduction.
EnumStats FairBcemPpRun(const BipartiteGraph& g,
                        const FairBicliqueParams& params,
                        std::uint32_t min_upper, const EnumOptions& options,
                        const EngineSink& sink);

}  // namespace fairbc

#endif  // FAIRBC_CORE_FAIR_BCEM_PP_H_
