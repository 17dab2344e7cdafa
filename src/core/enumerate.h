#ifndef FAIRBC_CORE_ENUMERATE_H_
#define FAIRBC_CORE_ENUMERATE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/kernels.h"
#include "fairness/fair_vector.h"

namespace fairbc {

class TraceRecorder;
class SearchBudget;
struct ReductionCacheRef;

/// Parameters of the four fair-biclique models (Defs. 3–6).
struct FairBicliqueParams {
  std::uint32_t alpha = 1;  ///< upper-side size (SSFBC) / per-class (BSFBC).
  std::uint32_t beta = 1;   ///< lower-side per-class minimum.
  std::uint32_t delta = 0;  ///< max class-size difference on a fair side.
  double theta = 0.0;       ///< proportional threshold; 0 disables (Defs. 3/4).

  /// Fairness constraints on the lower (default fair) side.
  FairnessSpec LowerSpec() const { return FairnessSpec{beta, delta, theta}; }
  /// Fairness constraints on the upper side (bi-side models).
  FairnessSpec UpperSpec() const { return FairnessSpec{alpha, delta, theta}; }
};

/// The engine of a fair enumeration, for either FairModel.
enum class FairAlgo {
  kPlusPlus,  ///< FairBCEM++ (Alg. 6) / BFairBCEM++ (§IV-C); the default.
  kBcem,      ///< FairBCEM (Alg. 5) / BFairBCEM (Alg. 9).
  kNaive,     ///< NSF / BNSF baselines (§V-A): reduction kept, search
              ///< pruning dropped.
};

/// One enumerated biclique; both sides sorted ascending, ids refer to the
/// graph the enumeration entry point was given (pruning remaps back).
struct Biclique {
  std::vector<VertexId> upper;
  std::vector<VertexId> lower;

  bool operator==(const Biclique& other) const = default;
  bool operator<(const Biclique& other) const {
    if (upper != other.upper) return upper < other.upper;
    return lower < other.lower;
  }
  std::string DebugString() const;
};

/// Receives results; return false to abort the enumeration.
///
/// Threading contract: RunEnumeration and the other core/pipeline.h
/// entry points always invoke the caller's sink one call at a time —
/// their emission stage hands it whole blocks of results under one lock —
/// so sinks passed to the public API need no synchronization of their
/// own. When EnumOptions::num_threads != 1 the calls arrive from worker
/// threads in nondeterministic order. The Biclique passed in is only
/// valid for the duration of the call.
using BicliqueSink = std::function<bool(const Biclique&)>;

/// The worker an engine emits from, as its EngineSink sees it.
struct EmitWorker {
  /// In [0, worker count of the run); calls carrying the same index never
  /// overlap, calls with different indices may run concurrently.
  unsigned index = 0;
  /// The worker's recursion arena: the sink may carve scratch out of it
  /// under its own ArenaScope and must rewind it before returning.
  ScratchArena* arena = nullptr;
};

/// Engine-level sink of the lower-level engine entry points (FairBcemRun,
/// FairBcemPpRun, BFairBcemRun, EnumerateMaximalBicliques, and the run
/// driver RunSearch in core/search_context.h beneath them): one result as
/// two ascending id spans that are valid only during the call. Calls from
/// different workers may run concurrently (see EmitWorker). Return false
/// to abort the enumeration.
using EngineSink =
    std::function<bool(const EmitWorker& worker,
                       std::span<const VertexId> upper,
                       std::span<const VertexId> lower)>;

/// Composable result-sink interface: every consumer of an enumeration —
/// collecting, counting, chunked streaming, top-k selection — is one
/// ResultSink, and sinks stack by forwarding Accept to an inner sink.
/// Accept returns false to abort the run (same contract as BicliqueSink,
/// which remains the currency of RunEnumeration and the other
/// core/pipeline.h entry points; AsSink() bridges).
/// Finish() is called exactly once after the enumeration returns so
/// buffering sinks (core/result_sink.h ChunkSink, TopKSink) can flush; for
/// pass-through sinks it is a no-op. Unless a sink documents otherwise,
/// Accept/Finish follow the BicliqueSink threading contract above.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// Consumes one result; false aborts the enumeration.
  virtual bool Accept(const Biclique& b) = 0;

  /// Flushes buffered state once the run is over (no further Accepts).
  virtual void Finish() {}

  /// Adapter into the engines' functional sink type. The returned
  /// callable references *this and must not outlive it.
  BicliqueSink AsSink() {
    return [this](const Biclique& b) { return Accept(b); };
  }
};

/// Ranking for top-k result selection (core/result_sink.h TopKSink and
/// the service/CLI `top_k`/`rank` knobs). Higher rank value = better;
/// ties break by the canonical Biclique order (smaller wins) so top-k
/// output is deterministic whatever the emission order.
enum class TopKRank {
  kWeight,   ///< |upper| * |lower| (edge count of the biclique).
  kSize,     ///< |upper| + |lower| (vertex count).
  kBalance,  ///< min(|upper|, |lower|) (balanced-biclique objective).
};

/// Rank value of a (|upper|, |lower|) shape pair under `rank`.
std::uint64_t RankValue(std::uint64_t upper_size, std::uint64_t lower_size,
                        TopKRank rank);

/// Shared branch-and-bound prune state for top-k runs: the top-k sink
/// publishes the current k-th best rank value once its keeper is full, and
/// every engine worker consults CanPrune before descending into a subtree
/// and before deriving results from one it emitted. A subtree is cut only
/// when its best possible rank value is *strictly* below the published
/// bound — results tying the k-th best can still displace it under the
/// canonical tie-break, so pruned runs return exactly the top k of the
/// full enumeration.
///
/// Every engine's results fit the bound of the subtree they come from:
/// FairBcemPpRun's fair subsets shrink the lower side of a maximal
/// biclique (paper Alg. 6 l. 25-28), and BFairBcemRun's shrink the upper
/// side of a single-side result (Alg. 9), so neither grows a side past
/// the shape it checked.
class TopKPruneBound {
 public:
  explicit TopKPruneBound(TopKRank rank) : rank_(rank) {}

  TopKRank rank() const { return rank_; }

  /// Publishes the current k-th best value (keeper full). Monotone
  /// non-decreasing by construction; called under the sink serialization.
  void Publish(std::uint64_t kth_value) {
    bound_.store(kth_value, std::memory_order_release);
    full_.store(true, std::memory_order_release);
  }

  /// May a subtree whose results all fit within (upper_bound, lower_bound)
  /// be cut? Relaxed loads: a stale (smaller) bound only prunes less.
  bool CanPrune(std::uint64_t upper_bound, std::uint64_t lower_bound) const {
    if (!full_.load(std::memory_order_relaxed)) return false;
    return RankValue(upper_bound, lower_bound, rank_) <
           bound_.load(std::memory_order_relaxed);
  }

 private:
  const TopKRank rank_;
  std::atomic<std::uint64_t> bound_{0};
  std::atomic<bool> full_{false};
};

/// Candidate processing order in the branch-and-bound search (Table II).
enum class VertexOrdering {
  kId,          ///< IDOrd: ascending vertex id.
  kDegreeDesc,  ///< DegOrd: non-increasing degree (paper default).
};

/// Graph-reduction preprocessing level (Figs. 3–4; ablation A1).
enum class PruningLevel {
  kNone,      ///< no reduction (only used by ablations/tests).
  kCore,      ///< FCore (single-side) / BFCore (bi-side).
  kColorful,  ///< CFCore / BCFCore (paper default).
};

struct EnumOptions {
  VertexOrdering ordering = VertexOrdering::kDegreeDesc;
  PruningLevel pruning = PruningLevel::kColorful;
  /// Maximum number of search-tree nodes (0 = unlimited); emulates the
  /// paper's 24h timeout for the naive baselines.
  std::uint64_t node_budget = 0;
  /// Wall-clock budget in seconds (0 = unlimited).
  double time_budget_seconds = 0.0;
  /// Worker threads for the whole pipeline: the graph-reduction peeling
  /// (bulk-synchronous frontier rounds), the root-level subtree fan-out of
  /// the search, and its depth-adaptive task splitting all use this count.
  /// 1 = serial (the exact pre-parallel traversal, node accounting
  /// included), 0 = one per hardware thread, n = n workers. The result
  /// *set* is identical for every value; emission order and search_nodes
  /// bookkeeping may differ once the search actually runs on several
  /// workers.
  unsigned num_threads = 1;
  /// Optional per-query span recorder (obs/trace.h): the pipeline and the
  /// engines emit phase spans (reduce / construct / color / peel /
  /// enumerate, root fan-out tasks, split subtrees) into it. Not part of
  /// a query's identity — cache keys and result sets ignore it. null =
  /// no tracing (the default, and the zero-overhead path).
  TraceRecorder* trace = nullptr;
  /// Optional top-k branch-and-bound prune state, owned by the caller's
  /// top-k sink (core/result_sink.h TopKSink::prune_bound()). Engines cut
  /// subtrees that provably cannot reach the published k-th best; null =
  /// full enumeration (the default). Like `trace`, not part of a query's
  /// identity — but the *k/rank* knobs that create one are.
  const TopKPruneBound* topk = nullptr;
  /// Optional caller-owned budget the engines use instead of constructing
  /// their own from node_budget/time_budget_seconds. Lets streaming
  /// consumers observe mid-run progress (SearchBudget::nodes — the
  /// StreamCheckpoint of core/result_sink.h) and abort cooperatively. The
  /// caller must construct it with the same limits as this options block
  /// and must not reuse it across runs. null = engine-owned (default).
  SearchBudget* shared_budget = nullptr;
  /// Optional reuse of graph reductions across runs
  /// (core/reduction_cache.h): the pipeline takes the run's reduction
  /// from the referenced cache, under the referenced graph version, or
  /// computes it and keeps it there. Like `trace`, not part of a query's
  /// identity: a cached reduction equals a fresh one. null = every run
  /// reduces (the default).
  const ReductionCacheRef* reductions = nullptr;
};

/// Counters reported by every enumeration entry point.
struct EnumStats {
  std::uint64_t num_results = 0;
  std::uint64_t search_nodes = 0;
  std::uint64_t maximal_bicliques_visited = 0;  ///< ++ engines only.
  /// Subtrees handed back to the batch by depth-adaptive task splitting
  /// (0 on serial runs and whenever the queue never ran dry).
  std::uint64_t split_subtrees = 0;
  double prune_seconds = 0.0;
  /// Reduction-phase breakdown of prune_seconds (kColorful pruning):
  /// 2-hop construction, coloring, and peeling (FCore/BFCore passes count
  /// toward peel). Compaction and mask bookkeeping make up the remainder.
  double prune_construct_seconds = 0.0;
  double prune_color_seconds = 0.0;
  double prune_peel_seconds = 0.0;
  double enum_seconds = 0.0;
  bool budget_exhausted = false;
  /// The reduction came from EnumOptions::reductions: nothing was
  /// reduced, so prune_seconds and its phase split are 0, while
  /// remaining_* and peak_struct_bytes describe the cached reduction.
  bool reduction_cached = false;
  /// Vertices surviving the graph reduction.
  VertexId remaining_upper = 0;
  VertexId remaining_lower = 0;
  /// Peak bytes of algorithm-owned auxiliary structures (Fig. 8); includes
  /// the workers' recursion-arena high-water marks.
  std::size_t peak_struct_bytes = 0;
  /// Intersection-kernel telemetry summed over every worker of the run
  /// (calls, work steps, dispatch histogram; core/kernels.h).
  KernelStats kernels;

  std::string DebugString() const;
};

/// Convenience sink collecting every result. Internally synchronized so
/// one instance may even be shared by concurrent runs;
/// results() must only be read after the enumeration returned.
class CollectSink final : public ResultSink {
 public:
  bool Accept(const Biclique& b) override {
    std::lock_guard<std::mutex> lock(mu_);
    results_.push_back(b);
    return true;
  }
  const std::vector<Biclique>& results() const { return results_; }

 private:
  std::mutex mu_;
  std::vector<Biclique> results_;
};

/// Convenience sink that only counts; safe under concurrent emission.
class CountSink final : public ResultSink {
 public:
  bool Accept(const Biclique&) override {
    count_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> count_{0};
};

}  // namespace fairbc

#endif  // FAIRBC_CORE_ENUMERATE_H_
