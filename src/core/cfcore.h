#ifndef FAIRBC_CORE_CFCORE_H_
#define FAIRBC_CORE_CFCORE_H_

#include <cstdint>

#include "core/coloring.h"
#include "core/two_hop_graph.h"
#include "graph/bipartite_graph.h"

namespace fairbc {

class ReductionContext;

/// Result of a graph-reduction run (CFCore / BCFCore).
struct PruneResult {
  SideMasks masks;
  /// Bytes of the pruning-owned structures, all built over the compacted
  /// FCore/BFCore survivors: the survivor subgraph, the 2-hop graphs and
  /// the color multiplicity matrices. Reported by the Fig. 8 memory
  /// experiment.
  std::size_t peak_struct_bytes = 0;
};

/// Peels `h` (restricted to `alive`) down to its ego colorful k-core
/// (Def. 10): every surviving vertex keeps ego colorful degree >= k for
/// every attribute class. Updates `alive` in place. `meter_bytes`, if
/// non-null, accumulates the peak size of the color multiplicity matrices.
/// With a parallel context the peel runs frontier-based
/// bulk-synchronous rounds with atomic multiplicity counters; the
/// surviving set is identical to the serial peel (the ego colorful core
/// is a unique fixpoint).
void EgoColorfulCorePeel(const UnipartiteGraph& h, const Coloring& coloring,
                         std::uint32_t k, std::vector<char>& alive,
                         std::size_t* meter_bytes,
                         ReductionContext* ctx = nullptr);

/// Colorful fair α-β core pruning (paper Alg. 2, CFCore): FCore, then the
/// 2-hop graph on the fair (lower) side, degree pruning, coloring, ego
/// colorful β-core, and a final FCore pass. Lossless for SSFBC
/// enumeration (Lemma 2). Everything after the first FCore runs on the
/// compacted FCore survivors (ids kept in order, so the result is the
/// same as on the parent graph); the returned masks are over `g`.
///
/// `ctx` carries the batch width (nullptr or a serial context = the exact
/// serial path: serial sweeps, GreedyColor, serial peel), the per-lane
/// construction scratch, and the per-phase construct/color/peel timers.
/// In parallel the front-end runs sharded parallel 2-hop construction and
/// Jones–Plassmann coloring; both are byte-identical to the serial
/// kernels, so the returned masks match at every thread count.
PruneResult CFCore(const BipartiteGraph& g, std::uint32_t alpha,
                   std::uint32_t beta, ReductionContext* ctx = nullptr);

/// Bi-side variant (paper §IV-A, BCFCore): BFCore, then colorful pruning
/// on *both* sides using BiConstruct2HopGraph, and a final BFCore pass.
/// Lossless for BSFBC enumeration. Same context contract as CFCore.
PruneResult BCFCore(const BipartiteGraph& g, std::uint32_t alpha,
                    std::uint32_t beta, ReductionContext* ctx = nullptr);

}  // namespace fairbc

#endif  // FAIRBC_CORE_CFCORE_H_
