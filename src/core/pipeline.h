#ifndef FAIRBC_CORE_PIPELINE_H_
#define FAIRBC_CORE_PIPELINE_H_

#include "core/enumerate.h"
#include "core/fair_bcem.h"
#include "core/verify.h"
#include "graph/bipartite_graph.h"

namespace fairbc {

/// Public enumeration entry points: RunEnumeration for the fair models,
/// EnumerateMaximalBicliquesPruned for plain maximal bicliques and
/// EnumerateSSFBCWithSearchOptions for the search-pruning ablation. Each
/// runs the configured graph reduction (CFCore / BCFCore by default, see
/// EnumOptions::pruning), compacts the survivors, runs the engine, and
/// reports results in the *input* graph's vertex ids. Statistics cover
/// both phases.
///
/// Quickstart:
///
///   fairbc::FairBicliqueParams params{.alpha = 2, .beta = 2, .delta = 1};
///   fairbc::CollectSink sink;
///   fairbc::RunEnumeration(graph, fairbc::FairModel::kSsfbc,
///                          fairbc::FairAlgo::kPlusPlus, params, {},
///                          sink.AsSink());
///   for (const auto& b : sink.results()) { ... }
///
/// Set EnumOptions::num_threads to parallelize the search (0 = one worker
/// per hardware thread). The caller's sink is always invoked serially —
/// each worker remaps its results into its own block, and whole blocks
/// reach the sink under one lock (docs/PERF.md, Emission) — but emission
/// order is nondeterministic once several workers run; the result *set*
/// is identical for every thread count. EnumStats::num_results is exactly
/// the number of results the sink received, unless it returned false.

/// Fair biclique enumeration: SSFBCs (model kSsfbc, CFCore reduction) or
/// BSFBCs (kBsfbc, BCFCore reduction) with the `algo` engine. With
/// params.theta > 0 every engine runs its proportional variant (PSSFBC /
/// PBSFBC; FairBCEMPro++ and BFairBCEMPro++ under kPlusPlus).
EnumStats RunEnumeration(const BipartiteGraph& g, FairModel model,
                         FairAlgo algo, const FairBicliqueParams& params,
                         const EnumOptions& options, const BicliqueSink& sink);

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

/// Ablation hook: FairBCEM (model kSsfbc) with explicit search-pruning
/// switches. FairBcemSearchOptions{} is RunEnumeration's kBcem engine and
/// NaiveSearchOptions() its kNaive one.
EnumStats EnumerateSSFBCWithSearchOptions(const BipartiteGraph& g,
                                          const FairBicliqueParams& params,
                                          const EnumOptions& options,
                                          const FairBcemSearchOptions& search,
                                          const BicliqueSink& sink);

}  // namespace fairbc

#endif  // FAIRBC_CORE_PIPELINE_H_
