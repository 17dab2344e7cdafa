#include "core/pipeline.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/bfair_bcem.h"
#include "core/cfcore.h"
#include "core/fair_bcem.h"
#include "core/fcore.h"
#include "core/mbea.h"
#include "core/parallel.h"
#include "core/reduction_cache.h"
#include "core/reduction_context.h"
#include "obs/trace.h"

namespace fairbc {

namespace {

PruneResult RunPruning(const BipartiteGraph& g, const FairBicliqueParams& p,
                       PruningLevel level, bool bi_side, unsigned num_threads,
                       TraceRecorder* trace, ReductionPhaseTimes* times) {
  // One ReductionContext serves the whole reduction: it borrows the
  // caller's pool (only when num_threads > 1 — the num_threads == 1
  // contract is the exact serial front-end), and holds the per-lane
  // construction scratch and the per-phase construct/color/peel timers.
  ReductionContext ctx(level != PruningLevel::kNone ? num_threads : 1);
  ctx.set_trace(trace);

  PruneResult result;
  switch (level) {
    case PruningLevel::kNone:
      result.masks.upper_alive.assign(g.NumUpper(), 1);
      result.masks.lower_alive.assign(g.NumLower(), 1);
      break;
    case PruningLevel::kCore:
      result.masks = bi_side ? BFCore(g, p.alpha, p.beta, &ctx)
                             : FCore(g, p.alpha, p.beta, &ctx);
      break;
    case PruningLevel::kColorful:
      result = bi_side ? BCFCore(g, p.alpha, p.beta, &ctx)
                       : CFCore(g, p.alpha, p.beta, &ctx);
      break;
  }
  if (times != nullptr) *times = ctx.times();
  return result;
}

// The configured reduction of `g` plus compaction, as one value.
std::shared_ptr<const Reduction> Reduce(const BipartiteGraph& g,
                                        const FairBicliqueParams& params,
                                        const EnumOptions& options,
                                        bool bi_side) {
  Timer timer;
  auto reduction = std::make_shared<Reduction>();
  PruneResult pruned =
      RunPruning(g, params, options.pruning, bi_side,
                 ResolveNumThreads(options.num_threads), options.trace,
                 &reduction->times);
  reduction->graph = InducedSubgraph(g, pruned.masks, &reduction->maps);
  reduction->peak_struct_bytes = pruned.peak_struct_bytes;
  reduction->seconds = timer.ElapsedSeconds();
  return reduction;
}

// The one emission stage between an engine and the caller's sink. Each
// worker remaps its results (compact ids back to parent ids; the maps are
// monotone, so sides stay sorted) into its own reusable block of flat
// ids, and whole blocks go to the caller's sink under one lock, replayed
// through one reused Biclique. A worker flushes after every result until
// the caller has received its first one, so time to first result is the
// engine's; after that it flushes every kBlockResults results. Finish()
// flushes the partial blocks once the engine has returned, budget-exhausted
// runs included. A false from the caller latches the abort: the rest of
// that block and every later one are dropped, and the engines see false
// from their next call into the stage.
class BlockEmitter {
 public:
  static constexpr std::size_t kBlockResults = 256;

  BlockEmitter(const IdMaps& maps, const BicliqueSink& sink,
               unsigned num_workers)
      : maps_(maps), sink_(sink), blocks_(num_workers) {
    for (Block& block : blocks_) block.shapes.reserve(kBlockResults);
  }

  EngineSink AsEngineSink() {
    return [this](const EmitWorker& worker, std::span<const VertexId> upper,
                  std::span<const VertexId> lower) {
      return Emit(worker.index, upper, lower);
    };
  }

  /// Flushes every partial block; only after the engine returned.
  void Finish() {
    for (Block& block : blocks_) Flush(block);
  }

 private:
  struct alignas(64) Block {
    std::vector<VertexId> ids;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> shapes;
  };

  bool Emit(unsigned worker, std::span<const VertexId> upper,
            std::span<const VertexId> lower) {
    Block& block = blocks_[worker];
    const std::size_t base = block.ids.size();
    block.ids.resize(base + upper.size() + lower.size());
    VertexId* out = block.ids.data() + base;
    for (VertexId u : upper) *out++ = maps_.upper_to_parent[u];
    for (VertexId v : lower) *out++ = maps_.lower_to_parent[v];
    block.shapes.emplace_back(static_cast<std::uint32_t>(upper.size()),
                              static_cast<std::uint32_t>(lower.size()));
    if (block.shapes.size() >= kBlockResults ||
        !first_delivered_.load(std::memory_order_relaxed)) {
      return Flush(block);
    }
    return !aborted_.load(std::memory_order_relaxed);
  }

  bool Flush(Block& block) {
    bool ok = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const VertexId* ids = block.ids.data();
      ok = !aborted_.load(std::memory_order_relaxed);
      for (std::size_t i = 0; ok && i < block.shapes.size(); ++i) {
        const auto [num_upper, num_lower] = block.shapes[i];
        current_.upper.assign(ids, ids + num_upper);
        ids += num_upper;
        current_.lower.assign(ids, ids + num_lower);
        ids += num_lower;
        ok = sink_(current_);
      }
      if (!ok) aborted_.store(true, std::memory_order_relaxed);
      if (!block.shapes.empty()) {
        first_delivered_.store(true, std::memory_order_relaxed);
      }
    }
    block.ids.clear();
    block.shapes.clear();
    return ok;
  }

  const IdMaps& maps_;
  const BicliqueSink& sink_;
  std::vector<Block> blocks_;
  std::mutex mu_;
  Biclique current_;  // guarded by mu_.
  std::atomic<bool> first_delivered_{false};
  std::atomic<bool> aborted_{false};
};

// Runs `engine` on the compacted graph through a BlockEmitter and fills
// the enumeration half of the stats; the caller fills the reduction half.
template <typename EngineFn>
EnumStats EmitThroughBlocks(const BipartiteGraph& sub, const IdMaps& maps,
                            const EnumOptions& options,
                            const BicliqueSink& sink, EngineFn&& engine) {
  Timer enum_timer;
  TraceSpan enum_span(options.trace, "enumerate");
  BlockEmitter emitter(maps, sink, ResolveNumThreads(options.num_threads));
  EnumStats stats = engine(sub, emitter.AsEngineSink());
  emitter.Finish();
  enum_span.End();
  stats.enum_seconds = enum_timer.ElapsedSeconds();
  stats.remaining_upper = static_cast<VertexId>(maps.upper_to_parent.size());
  stats.remaining_lower = static_cast<VertexId>(maps.lower_to_parent.size());
  return stats;
}

// The one place a run gets its reduction: from EnumOptions::reductions
// when it holds the key, else computed (and kept there, if given).
template <typename EngineFn>
EnumStats RunPipeline(const BipartiteGraph& g, const FairBicliqueParams& params,
                      const EnumOptions& options, bool bi_side,
                      const BicliqueSink& sink, EngineFn&& engine) {
  TraceSpan reduce_span(options.trace, "reduce");
  const ReductionCacheRef* ref = options.reductions;
  const ReductionKey key{ref != nullptr ? ref->graph_version : 0, bi_side,
                         params.alpha, params.beta, options.pruning};
  std::shared_ptr<const Reduction> reduction =
      ref != nullptr ? ref->cache->Lookup(key) : nullptr;
  const bool cached = reduction != nullptr;
  if (!cached) {
    reduction = Reduce(g, params, options, bi_side);
    if (ref != nullptr) ref->cache->Insert(key, reduction);
  }
  reduce_span.End();

  EnumStats stats =
      EmitThroughBlocks(reduction->graph, reduction->maps, options, sink,
                        engine);
  stats.reduction_cached = cached;
  if (!cached) {
    stats.prune_seconds = reduction->seconds;
    stats.prune_construct_seconds = reduction->times.construct_seconds;
    stats.prune_color_seconds = reduction->times.color_seconds;
    stats.prune_peel_seconds = reduction->times.peel_seconds;
  }
  stats.peak_struct_bytes += reduction->peak_struct_bytes;
  return stats;
}

// The degree core: repeatedly drops upper vertices with degree <
// min_upper_degree and lower vertices with degree < min_lower_degree.
// Queue-based peel, linear in the edges.
SideMasks DegreeCore(const BipartiteGraph& g, std::uint32_t min_upper_degree,
                     std::uint32_t min_lower_degree) {
  SideMasks masks;
  masks.upper_alive.assign(g.NumUpper(), 1);
  masks.lower_alive.assign(g.NumLower(), 1);
  std::vector<char>* alive[2] = {&masks.upper_alive, &masks.lower_alive};
  const std::uint32_t min_degree[2] = {min_upper_degree, min_lower_degree};
  std::vector<std::uint32_t> degree[2];
  std::vector<std::pair<Side, VertexId>> queue;
  for (Side side : {Side::kUpper, Side::kLower}) {
    const int s = static_cast<int>(side);
    degree[s].resize(g.NumVertices(side));
    for (VertexId v = 0; v < degree[s].size(); ++v) {
      degree[s][v] = g.Degree(side, v);
      if (degree[s][v] < min_degree[s]) {
        (*alive[s])[v] = 0;
        queue.emplace_back(side, v);
      }
    }
  }
  while (!queue.empty()) {
    const auto [side, v] = queue.back();
    queue.pop_back();
    const int o = static_cast<int>(Opposite(side));
    for (VertexId w : g.Neighbors(side, v)) {
      if ((*alive[o])[w] && --degree[o][w] < min_degree[o]) {
        (*alive[o])[w] = 0;
        queue.emplace_back(Opposite(side), w);
      }
    }
  }
  return masks;
}

}  // namespace

EnumStats EnumerateSSFBCWithSearchOptions(const BipartiteGraph& g,
                                          const FairBicliqueParams& params,
                                          const EnumOptions& options,
                                          const FairBcemSearchOptions& search,
                                          const BicliqueSink& sink) {
  return RunPipeline(g, params, options, /*bi_side=*/false, sink,
                     [&](const BipartiteGraph& sub, const EngineSink& s) {
                       return FairBcemRun(sub, params, params.alpha, options,
                                          search, s);
                     });
}

EnumStats EnumerateMaximalBicliquesPruned(const BipartiteGraph& g,
                                          std::uint32_t min_upper,
                                          std::uint32_t min_lower_total,
                                          const EnumOptions& options,
                                          const BicliqueSink& sink) {
  // A maximal biclique (L, R) with |L| >= min_upper and |R| >=
  // min_lower_total gives each of its upper vertices degree >= |R| and
  // each lower vertex degree >= |L|, so it lies inside the degree core
  // below — and stays maximal there. Sides are never empty, hence the
  // floor of 1.
  Timer prune_timer;
  TraceSpan reduce_span(options.trace, "reduce");
  const SideMasks masks = DegreeCore(g, std::max(min_lower_total, 1u),
                                     std::max(min_upper, 1u));
  IdMaps maps;
  BipartiteGraph sub = InducedSubgraph(g, masks, &maps);
  reduce_span.End();
  const double prune_seconds = prune_timer.ElapsedSeconds();

  // Direct maximal-biclique emission: subtree shapes bound their results
  // exactly, so the top-k prune bound flows through unchanged.
  EnumStats stats = EmitThroughBlocks(
      sub, maps, options, sink,
      [&](const BipartiteGraph& s, const EngineSink& engine_sink) {
        return EnumerateMaximalBicliques(s, min_upper, min_lower_total,
                                         /*min_lower_per_attr=*/0, options,
                                         engine_sink);
      });
  stats.prune_seconds = prune_seconds;
  return stats;
}

EnumStats RunEnumeration(const BipartiteGraph& g, FairModel model,
                         FairAlgo algo, const FairBicliqueParams& params,
                         const EnumOptions& options, const BicliqueSink& sink) {
  const bool bi_side = model == FairModel::kBsfbc;
  return RunPipeline(g, params, options, bi_side, sink,
                     [&](const BipartiteGraph& sub, const EngineSink& s) {
                       if (bi_side) {
                         return BFairBcemRun(sub, params, options, algo, s);
                       }
                       return SingleSideRun(sub, params, params.alpha,
                                            options, algo, s);
                     });
}

}  // namespace fairbc
