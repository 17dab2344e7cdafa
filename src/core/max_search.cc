#include "core/max_search.h"

#include "common/status.h"
#include "core/pipeline.h"
#include "core/result_sink.h"

namespace fairbc {

std::uint64_t ObjectiveValue(const Biclique& b, BicliqueObjective objective) {
  return RankValue(b.upper.size(), b.lower.size(),
                   objective == BicliqueObjective::kEdges ? TopKRank::kWeight
                                                          : TopKRank::kSize);
}

namespace {

// Runs `enumerate` into a TopKSink that keeps the k best results under
// the rank matching `objective`. The sink's prune bound goes back into
// the engines as EnumOptions::topk: once k results are kept it holds the
// current k-th best rank value, and the engines cut every subtree whose
// best possible result cannot reach it. The search visits fewer nodes
// and still returns exactly the top k of the full enumeration
// (TopKPruneBound, core/enumerate.h).
template <typename EnumerateFn>
MaxSearchResult RunTopK(EnumerateFn&& enumerate, const BipartiteGraph& g,
                        const FairBicliqueParams& params,
                        const EnumOptions& options, std::uint32_t k,
                        BicliqueObjective objective) {
  TopKSink sink(k, objective == BicliqueObjective::kEdges
                       ? TopKRank::kWeight
                       : TopKRank::kSize);
  EnumOptions pruned = options;
  pruned.topk = sink.prune_bound();
  MaxSearchResult result;
  result.stats = enumerate(g, params, pruned, sink.AsSink());
  sink.Finish();
  result.best = sink.Take();
  return result;
}

}  // namespace

MaxSearchResult TopKSSFBC(const BipartiteGraph& g,
                          const FairBicliqueParams& params,
                          const EnumOptions& options, std::uint32_t k,
                          BicliqueObjective objective) {
  return RunTopK(EnumerateSSFBCPlusPlus, g, params, options, k, objective);
}

MaxSearchResult TopKBSFBC(const BipartiteGraph& g,
                          const FairBicliqueParams& params,
                          const EnumOptions& options, std::uint32_t k,
                          BicliqueObjective objective) {
  return RunTopK(EnumerateBSFBCPlusPlus, g, params, options, k, objective);
}

}  // namespace fairbc
