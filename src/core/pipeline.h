#ifndef FAIRBC_CORE_PIPELINE_H_
#define FAIRBC_CORE_PIPELINE_H_

#include "core/enumerate.h"
#include "core/fair_bcem.h"
#include "core/verify.h"
#include "graph/bipartite_graph.h"

namespace fairbc {

/// Public enumeration entry points. Each runs the configured graph
/// reduction (CFCore / BCFCore by default, see EnumOptions::pruning),
/// compacts the survivors, runs the engine, and reports results in the
/// *input* graph's vertex ids. Statistics cover both phases.
///
/// Quickstart:
///
///   fairbc::FairBicliqueParams params{.alpha = 2, .beta = 2, .delta = 1};
///   fairbc::CollectSink sink;
///   fairbc::EnumerateSSFBCPlusPlus(graph, params, {}, sink.AsSink());
///   for (const auto& b : sink.results()) { ... }
///
/// Set EnumOptions::num_threads to parallelize the search (0 = one worker
/// per hardware thread). The caller's sink is always invoked serially —
/// each worker remaps its results into its own block, and whole blocks
/// reach the sink under one lock (docs/PERF.md, Emission) — but emission
/// order is nondeterministic once several workers run; the result *set*
/// is identical for every thread count. EnumStats::num_results is exactly
/// the number of results the sink received, unless it returned false.

/// FairBCEM (paper Alg. 5): branch-and-bound single-side fair biclique
/// enumeration. With params.theta > 0 it enumerates PSSFBCs.
EnumStats EnumerateSSFBC(const BipartiteGraph& g,
                         const FairBicliqueParams& params,
                         const EnumOptions& options, const BicliqueSink& sink);

/// FairBCEM++ (paper Alg. 6): maximal bicliques + combinatorial
/// enumeration. With params.theta > 0 this is FairBCEMPro++.
EnumStats EnumerateSSFBCPlusPlus(const BipartiteGraph& g,
                                 const FairBicliqueParams& params,
                                 const EnumOptions& options,
                                 const BicliqueSink& sink);

/// NSF baseline (§V-A): graph reduction kept, search pruning dropped.
EnumStats EnumerateSSFBCNaive(const BipartiteGraph& g,
                              const FairBicliqueParams& params,
                              const EnumOptions& options,
                              const BicliqueSink& sink);

/// BFairBCEM (paper Alg. 9). With params.theta > 0: proportion model.
EnumStats EnumerateBSFBC(const BipartiteGraph& g,
                         const FairBicliqueParams& params,
                         const EnumOptions& options, const BicliqueSink& sink);

/// BFairBCEM++ (paper §IV-C). With params.theta > 0 this is
/// BFairBCEMPro++.
EnumStats EnumerateBSFBCPlusPlus(const BipartiteGraph& g,
                                 const FairBicliqueParams& params,
                                 const EnumOptions& options,
                                 const BicliqueSink& sink);

/// BNSF baseline (§V-A).
EnumStats EnumerateBSFBCNaive(const BipartiteGraph& g,
                              const FairBicliqueParams& params,
                              const EnumOptions& options,
                              const BicliqueSink& sink);

/// Maximal biclique enumeration with the same reduction/compaction
/// pipeline, used by the Fig. 6 count comparisons: emits maximal
/// bicliques with |L| >= min_upper and |R| >= min_lower_total. The
/// reduction is the degree core (upper degree >= min_lower_total, lower
/// degree >= min_upper), which loses no such biclique.
EnumStats EnumerateMaximalBicliquesPruned(const BipartiteGraph& g,
                                          std::uint32_t min_upper,
                                          std::uint32_t min_lower_total,
                                          const EnumOptions& options,
                                          const BicliqueSink& sink);

/// Engine selector over the six entry points above, shared by the CLI,
/// the query service and ad-hoc drivers.
enum class FairAlgo {
  kPlusPlus,  ///< FairBCEM++ / BFairBCEM++ (paper default).
  kBcem,      ///< FairBCEM / BFairBCEM.
  kNaive,     ///< NSF / BNSF baselines.
};

/// Single (model, algo) dispatch: exactly equivalent to calling the
/// matching Enumerate* entry point. The proportional variants remain
/// selected by params.theta > 0, as everywhere else.
EnumStats RunEnumeration(const BipartiteGraph& g, FairModel model,
                         FairAlgo algo, const FairBicliqueParams& params,
                         const EnumOptions& options, const BicliqueSink& sink);

/// Ablation hook: FairBCEM with explicit search-pruning switches.
EnumStats EnumerateSSFBCWithSearchOptions(const BipartiteGraph& g,
                                          const FairBicliqueParams& params,
                                          const EnumOptions& options,
                                          const FairBcemSearchOptions& search,
                                          const BicliqueSink& sink);

}  // namespace fairbc

#endif  // FAIRBC_CORE_PIPELINE_H_
