#ifndef FAIRBC_CORE_SEARCH_CONTEXT_H_
#define FAIRBC_CORE_SEARCH_CONTEXT_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/timer.h"
#include "core/enumerate.h"
#include "core/kernels.h"
#include "fairness/combination.h"
#include "fairness/fair_vector.h"
#include "graph/bipartite_graph.h"

namespace fairbc {

/// Pluggable fairness model evaluated on per-class size vectors. The
/// branch-and-bound engines only ever ask these three questions, so a
/// policy object is the whole fairness model from the search's point of
/// view: single-side models install one policy on the lower side, bi-side
/// models one per side, and the proportional (theta) variants are the same
/// policy with theta > 0 in the spec. Implementations must be thread-safe
/// (const methods, no mutable state) — one instance is shared by every
/// worker of a run.
class FairnessPolicy {
 public:
  virtual ~FairnessPolicy() = default;

  /// Def. 11 feasibility (plus the Def. 5/6 ratio constraint when
  /// proportional): may `sizes` be the class sizes of a fair set?
  /// Size vectors are passed as spans so arena-backed counter blocks flow
  /// through without copying; implementations must not allocate on the
  /// common path (these run once per branch of the search).
  virtual bool Feasible(SizeSpan sizes) const = 0;

  /// MFSCheck (paper Alg. 4): is `sizes` maximal within the per-class
  /// capacities `counts`, i.e. is a set with these sizes a *maximal* fair
  /// subset of a ground set with those counts?
  virtual bool MaximalWithin(SizeSpan sizes, SizeSpan counts) const = 0;

  /// Branch-and-bound reachability (Observation 5, second half): can every
  /// class still reach the per-class minimum within pool capacities
  /// `pool` (current picks plus remaining candidates)?
  virtual bool Reachable(SizeSpan pool) const = 0;

  virtual const FairnessSpec& spec() const = 0;
};

/// The size-vector policy implementing all four paper models on top of
/// fairness/fair_vector.h (plain and proportional, either side).
class SpecFairnessPolicy final : public FairnessPolicy {
 public:
  explicit SpecFairnessPolicy(FairnessSpec spec) : spec_(spec) {}

  bool Feasible(SizeSpan sizes) const override {
    return IsFeasibleVector(sizes, spec_);
  }
  bool MaximalWithin(SizeSpan sizes, SizeSpan counts) const override {
    return IsMaximalFairVector(sizes, counts, spec_);
  }
  bool Reachable(SizeSpan pool) const override {
    for (auto c : pool) {
      if (c < spec_.min_per_class) return false;
    }
    return true;
  }
  const FairnessSpec& spec() const override { return spec_; }

 private:
  const FairnessSpec spec_;
};

/// Thread-safe node/time budget and abort latch shared by every worker of
/// one enumeration run. Preserves the serial engines' check-then-count
/// sequence: the node that would exceed the budget is never accounted.
class SearchBudget {
 public:
  explicit SearchBudget(const EnumOptions& options)
      : SearchBudget(options.node_budget, options.time_budget_seconds) {}
  SearchBudget(std::uint64_t node_budget, double time_budget_seconds)
      : node_budget_(node_budget), deadline_(time_budget_seconds) {}

  /// True when the run must stop. Sets the exhausted latch when the node
  /// or time budget tripped; an abort (sink returned false) stops the run
  /// without marking the budget exhausted, exactly like the serial code.
  bool OverBudget() {
    if (aborted_.load(std::memory_order_relaxed)) return true;
    if ((node_budget_ > 0 &&
         nodes_.load(std::memory_order_relaxed) >= node_budget_) ||
        deadline_.Expired()) {
      exhausted_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Accounts one search node against the shared budget.
  void CountNode() { nodes_.fetch_add(1, std::memory_order_relaxed); }

  void Abort() { aborted_.store(true, std::memory_order_relaxed); }
  /// Search nodes accounted so far (streaming checkpoints read this
  /// mid-run, so it is monotone but approximate under concurrency).
  std::uint64_t nodes() const {
    return nodes_.load(std::memory_order_relaxed);
  }
  bool aborted() const { return aborted_.load(std::memory_order_relaxed); }
  bool exhausted() const { return exhausted_.load(std::memory_order_relaxed); }

 private:
  const std::uint64_t node_budget_;
  const Deadline deadline_;
  std::atomic<std::uint64_t> nodes_{0};
  std::atomic<bool> aborted_{false};
  std::atomic<bool> exhausted_{false};
};

/// Where a branch's candidate counts come from (SearchContext::OpenBranch).
enum class CountSource {
  kRoot,   ///< root branch: the counts of one wedge pass.
  kRows,   ///< below a narrow root: popcount(row[v] & mask(L')).
  kProbe,  ///< otherwise: a loaded BitsetView of L' probed with N(v).
};

/// c(v) = |N(v) ∩ L'| for the lower-side candidates of one branch node
/// with upper set L' (SearchContext::OpenBranch builds it). A root
/// branch reads the counts of one wedge pass; below a root of at most 64
/// neighbors, one AND + popcount of v's root row; elsewhere a deeper node
/// probes a loaded BitsetView of L' with v's neighbor list, in O(deg(v)).
class CandidateCounts {
 public:
  /// Root branch: `root_counts` is indexed by lower id.
  CandidateCounts(std::size_t upper_size, const std::uint32_t* root_counts)
      : source_(CountSource::kRoot),
        upper_size_(upper_size),
        root_counts_(root_counts) {}
  /// Below a narrow root: `rows` is indexed by lower id, bit i of row[v]
  /// set when v is adjacent to the root's i-th neighbor; `mask` holds L'.
  CandidateCounts(std::size_t upper_size, const std::uint64_t* rows,
                  std::uint64_t mask, KernelStats* stats)
      : source_(CountSource::kRows),
        upper_size_(upper_size),
        rows_(rows),
        mask_(mask),
        stats_(stats) {}
  /// Deeper node: `bits` holds L'.
  CandidateCounts(std::size_t upper_size, const BipartiteGraph& g,
                  BitsetView bits, KernelStats* stats)
      : source_(CountSource::kProbe),
        upper_size_(upper_size),
        g_(&g),
        bits_(bits),
        stats_(stats) {}

  /// Returns fn(count), where count(v) is Count(v) specialized to this
  /// source: a loop over many candidates dispatches on the source once.
  template <typename Fn>
  decltype(auto) WithCounter(Fn&& fn) const {
    switch (source_) {
      case CountSource::kRoot:
        return fn([this](VertexId v) { return root_counts_[v]; });
      case CountSource::kRows:
        return fn([this](VertexId v) { return CountRow(v, mask_); });
      case CountSource::kProbe:
        break;
    }
    return fn([this](VertexId v) {
      return bits_.CountHits(g_->Neighbors(Side::kLower, v), stats_);
    });
  }
  std::uint32_t Count(VertexId v) const {
    return WithCounter([v](auto count) { return count(v); });
  }
  /// kRows only: |N(v) ∩ S| for the upper set S ⊆ N(x_root) that `mask`
  /// holds. One kernel step.
  std::uint32_t CountRow(VertexId v, std::uint64_t mask) const {
    if (stats_ != nullptr) ++stats_->steps;
    return static_cast<std::uint32_t>(std::popcount(rows_[v] & mask));
  }
  CountSource source() const { return source_; }
  /// |L'|: the count of a fully connected candidate.
  std::size_t upper_size() const { return upper_size_; }

 private:
  CountSource source_;
  std::size_t upper_size_;
  const std::uint32_t* root_counts_ = nullptr;
  const std::uint64_t* rows_ = nullptr;
  std::uint64_t mask_ = 0;
  const BipartiteGraph* g_ = nullptr;
  BitsetView bits_;
  KernelStats* stats_ = nullptr;
};

/// One branch of the engines' search, on lower vertex x at node (L, R):
/// L' = L ∩ N(x) and the candidate counts against it.
struct BranchCounts {
  std::span<const VertexId> upper;  ///< L'.
  CandidateCounts counts;
  /// mask(L) when counts.source() is kRows, else 0.
  std::uint64_t l_mask = 0;
};

class SearchFanOut;

/// Per-worker view of one enumeration run: a local EnumStats block plus
/// the pieces every worker shares (graph, options, fairness policy, budget,
/// result sink). The engines' recursion classes hold exactly one of these;
/// RunSearch creates one per worker and merges their stats afterwards.
///
/// The sink handed in here is invoked directly from the owning worker,
/// tagged with `worker` (the EngineSink contract in core/enumerate.h).
class SearchContext {
 public:
  /// `policy` may be null for an engine that has no fairness model of its
  /// own (the MBEA substrate); such an engine must not call policy().
  SearchContext(const BipartiteGraph& g, const EnumOptions& options,
                const FairnessPolicy* policy, SearchBudget& budget,
                const EngineSink& sink, unsigned worker)
      : g_(g), options_(options), policy_(policy), budget_(budget),
        sink_(sink), worker_{worker, &arena_} {}

  SearchContext(const SearchContext&) = delete;
  SearchContext& operator=(const SearchContext&) = delete;

  const BipartiteGraph& graph() const { return g_; }
  const EnumOptions& options() const { return options_; }
  const FairnessPolicy& policy() const { return *policy_; }
  SearchBudget& budget() { return budget_; }
  EnumStats& stats() { return stats_; }

  /// This worker's recursion scratch: engine frames carve their candidate
  /// stacks and counter blocks out of it (ArenaScope per frame) instead of
  /// heap-allocating. Grow-only across subtrees — after the first deep
  /// branch the whole search is allocation-free.
  ScratchArena& arena() { return arena_; }

  /// Kernel telemetry shortcut (stats().kernels).
  KernelStats* kernel_stats() { return &stats_.kernels; }

  /// Bytes of this worker's search scratch: the arena's high-water mark
  /// plus the root arrays of CountRootWedges (EnumStats::peak_struct_bytes).
  std::size_t ScratchBytes() const {
    return arena_.HighWaterBytes() +
           (root_counts_.size() + root_touched_.size()) * sizeof(std::uint32_t) +
           root_rows_.size() * sizeof(std::uint64_t) + root_slots_.size();
  }

  /// Opens the branch on lower vertex x at node (L = `big_l`, R = `r`).
  /// At a root branch L' is N(x) itself and one wedge pass counts every
  /// lower vertex (CountRootWedges). Deeper, when every u of L is a
  /// neighbor of this worker's last root and that root has at most 64
  /// neighbors, L' = mask(L) & row[x], decoded ascending, and the counts
  /// are row popcounts (kRows); otherwise L' is intersected and loaded
  /// into a BitsetView (kProbe). Both deeper sources live in the arena
  /// (the caller's frame). Returns nullopt, before any count is built,
  /// when |L'| < `min_upper` (>= 1).
  std::optional<BranchCounts> OpenBranch(std::span<const VertexId> big_l,
                                         std::span<const VertexId> r,
                                         VertexId x, std::uint32_t min_upper);

  /// |N(v) ∩ L| for the L = `big_l` that `branch` was opened at (MBEA's
  /// exhausted test): deg(v) at a root branch, where L is U(G); one AND +
  /// popcount under root rows; an adaptive intersection otherwise.
  std::uint32_t CountInL(const BranchCounts& branch,
                         std::span<const VertexId> big_l, VertexId v);

  /// Root common-neighbor counts: one wedge pass x → u ∈ N(x) → w ∈ N(u)
  /// yields count[w] = |N(w) ∩ N(x)| for every lower w (0 beyond two
  /// hops). The array is indexed by lower id, owned by this worker and
  /// valid until the next call, which first zeroes the entries this one
  /// touched: only the first call costs O(|V|), the others
  /// O(Σ_{u∈N(x)} deg(u)). The wedge visits are charged to
  /// kernel_stats()->steps.
  ///
  /// When deg(x) <= 64 the same pass sets bit i of row[w] for the i-th
  /// neighbor of x (id order) and numbers N(x) in the slot map, so that
  /// OpenBranch can answer any L ⊆ N(x) with masks until the next call.
  const std::uint32_t* CountRootWedges(VertexId x);

  /// True when this worker must unwind (shared abort or exhausted budget).
  bool ShouldStop() { return budget_.OverBudget(); }

  /// Accounts one search node in the local stats and the shared budget.
  void CountNode() {
    ++stats_.search_nodes;
    budget_.CountNode();
  }

  /// Emits one result (both sides sorted); counts it and latches the
  /// shared abort when the sink declines more. Returns false once the run
  /// is aborted.
  bool Emit(std::span<const VertexId> upper, std::span<const VertexId> lower) {
    ++stats_.num_results;
    if (!sink_(worker_, upper, lower)) {
      budget_.Abort();
      return false;
    }
    return true;
  }

  /// Depth-adaptive task splitting, asked at every point where an engine
  /// is about to descend into the subtree of the node (big_l, r, p, q).
  /// Inside a parallel root task, when the batch's queue has run dry, the
  /// node's depth-1 children go to the batch as fresh tasks — child i
  /// branches on p[i] with exclusion set q + p[0..i), the sets the serial
  /// loop would have used, so the result set is unchanged — and this
  /// returns true: the caller must not descend itself. Always false on
  /// serial runs and inside split children, which never split again.
  bool TrySplit(std::span<const VertexId> big_l, std::span<const VertexId> r,
                std::span<const VertexId> p, std::span<const VertexId> q) {
    if (fan_out_ == nullptr || p.size() < 2) return false;
    return SplitOnPool(big_l, r, p, q);
  }

 private:
  friend class SearchFanOut;

  bool SplitOnPool(std::span<const VertexId> big_l, std::span<const VertexId> r,
                   std::span<const VertexId> p, std::span<const VertexId> q);

  /// mask(L) over the last root's slots, or nullopt when that root had
  /// more than kRowBits neighbors or some u ∈ L is not among them. Each
  /// slot looked up is one kernel step.
  std::optional<std::uint64_t> RowMask(std::span<const VertexId> big_l);

  /// Row width: the widest root whose neighbors get one bit each.
  static constexpr std::size_t kRowBits = 64;
  static constexpr std::uint8_t kNoSlot = 0xFF;

  const BipartiteGraph& g_;
  const EnumOptions& options_;
  const FairnessPolicy* const policy_;
  SearchBudget& budget_;
  const EngineSink& sink_;
  EnumStats stats_;
  ScratchArena arena_;
  /// CountRootWedges state, sized to the lower side on first use: the
  /// dense counts and the lower ids whose count the last pass raised.
  std::vector<std::uint32_t> root_counts_;
  std::vector<VertexId> root_touched_;
  std::size_t num_touched_ = 0;
  /// Row masks of the last root x when deg(x) <= 64 (indexed by lower id,
  /// zero on every untouched entry), the slot of each u ∈ N(x) (indexed
  /// by upper id, kNoSlot elsewhere), and N(x) itself (empty when the
  /// last root was wider, so that no L passes the slot test).
  std::vector<std::uint64_t> root_rows_;
  std::vector<std::uint8_t> root_slots_;
  std::span<const VertexId> row_upper_;
  const EmitWorker worker_;
  /// Set while this worker runs a root task of a parallel run.
  SearchFanOut* fan_out_ = nullptr;
};

/// The engine side of RunSearch: how one branch-and-bound engine walks
/// the lower-side candidates. Both callbacks construct the engine on the
/// given worker context.
struct SearchTasks {
  /// The whole serial search from the root: U(G) as the upper set and
  /// every candidate in order (num_threads == 1; the engine's own loop).
  std::function<void(SearchContext& ctx, std::span<const VertexId> upper_all,
                     std::span<const VertexId> candidates)>
      serial;
  /// One independent task: the branch on p[0] with upper set big_l,
  /// partial pick r and exclusion set q, and its subtree. Root task i is
  /// (U(G), {}, candidates[i..], candidates[0..i)); split child i of a
  /// node (L, R, P, Q) is (L, R, P[i..], Q + P[0..i)).
  std::function<void(SearchContext& ctx, std::span<const VertexId> big_l,
                     std::span<const VertexId> r, std::span<const VertexId> p,
                     std::span<const VertexId> q)>
      branch;
};

/// The one run driver of the branch-and-bound engines (FairBcemRun,
/// EnumerateMaximalBicliques). Orders the lower side (options.ordering),
/// uses options.shared_budget or a budget of its own, and then either
/// runs `tasks.serial` on one context (num_threads == 1: the exact serial
/// traversal) or fans the root branches out as one batch of
/// `tasks.branch` tasks on CallerPool(), with one context per lane
/// (SearchContext::TrySplit splits dominating subtrees). Returns the
/// lanes' merged stats: counters sum, peak_struct_bytes is the largest
/// lane's ScratchBytes(), remaining_* are g's side sizes. An empty side
/// returns zero stats.
EnumStats RunSearch(const BipartiteGraph& g, const EnumOptions& options,
                    const FairnessPolicy* policy, const EngineSink& sink,
                    const SearchTasks& tasks);

/// Per-worker event counters of one run (one cache line per EmitWorker
/// index, so concurrent workers never share a line), summed afterwards.
class WorkerCounters {
 public:
  explicit WorkerCounters(unsigned workers) : slots_(workers) {}

  void Add(unsigned worker) { ++slots_[worker].value; }
  std::uint64_t Sum() const {
    std::uint64_t sum = 0;
    for (const Slot& slot : slots_) sum += slot.value;
    return sum;
  }

 private:
  struct alignas(64) Slot {
    std::uint64_t value = 0;
  };
  std::vector<Slot> slots_;
};

/// A vertex set kept ascending in a caller's buffer while single ids are
/// pushed and popped: the prefix of a maximal-fair-subset walk
/// (fairness/combination.h WalkMaximalFairSubsets), whose pushes arrive
/// class by class rather than in id order. The buffer must hold every id
/// pushed at once.
class SortedPrefix {
 public:
  explicit SortedPrefix(VertexId* ids) : ids_(ids) {}

  void Push(VertexId v) {
    // Shift the larger tail up by one.
    VertexId* pos = std::upper_bound(ids_, ids_ + size_, v);
    std::memmove(pos + 1, pos, (ids_ + size_ - pos) * sizeof(VertexId));
    *pos = v;
    ++size_;
  }
  void Pop(VertexId v) {
    VertexId* pos = std::lower_bound(ids_, ids_ + size_, v);
    std::memmove(pos, pos + 1, (ids_ + size_ - pos - 1) * sizeof(VertexId));
    --size_;
  }

  std::span<const VertexId> ids() const { return {ids_, size_}; }
  std::size_t size() const { return size_; }

 private:
  VertexId* ids_;
  std::size_t size_ = 0;
};

/// Prefix state of a maximal-fair-subset walk (fairness/combination.h
/// WalkMaximalFairSubsets) over vertices of `side`, kept in a worker's
/// ScratchArena: the prefix in ascending order and its common
/// neighborhood, folded one pushed vertex at a time.
///
/// `fixed_size` is the size of a vertex set the caller knows lies inside
/// every such neighborhood (the opposite side of the biclique whose side
/// is being walked). A prefix whose neighborhood has exactly that size
/// has that set as its neighborhood, and neighborhoods only shrink as
/// the prefix grows, so every extension has the same one: from there on
/// pushes reuse it without intersecting.
///
/// Allocates from `arena` at construction and on pushes; the caller
/// brackets the whole walk in one ArenaScope.
class PrefixFold {
 public:
  /// `max_depth` bounds the prefix length (the ground set's size).
  PrefixFold(const BipartiteGraph& g, Side side, std::size_t max_depth,
             std::size_t fixed_size, ScratchArena& arena);

  PrefixFold(const PrefixFold&) = delete;
  PrefixFold& operator=(const PrefixFold&) = delete;

  void Push(VertexId v);
  void Pop(VertexId v) { prefix_.Pop(v); }

  /// The prefix, ascending.
  std::span<const VertexId> prefix() const { return prefix_.ids(); }
  /// Common neighborhood of the (nonempty) prefix, ascending.
  std::span<const VertexId> neighborhood() const {
    return levels_[prefix_.size()];
  }
  /// True when neighborhood() is exactly the caller's fixed set.
  bool AtFixedSize() const { return neighborhood().size() == fixed_size_; }

 private:
  const BipartiteGraph& g_;
  const Side side_;
  const std::size_t max_depth_;
  const std::size_t fixed_size_;
  ScratchArena& arena_;
  SortedPrefix prefix_;
  /// levels_[d]: neighborhood of the length-d prefix (d >= 1). Level 1 is
  /// a graph neighbor list; deeper levels are buffers_[d] or alias their
  /// parent once it reached the fixed size.
  std::span<const VertexId>* levels_;
  /// Intersection buffers sized to level 1, allocated on first use past
  /// `mark_` and released whenever level 1 changes.
  VertexId** buffers_;
  ScratchArena::Mark mark_;
};

/// Walks the maximal fair subsets of `plan`'s ground set (vertices on
/// `side`) with a PrefixFold tracking each prefix, and calls `leaf(fold)`
/// at every complete subset; `leaf` returns false to stop the walk.
/// `fixed_size` is PrefixFold's. Scratch comes from `arena` and is
/// released on return.
template <typename LeafFn>
std::uint64_t WalkFairSubsetsFolded(const BipartiteGraph& g, Side side,
                                    const FairSubsetPlan& plan,
                                    std::size_t fixed_size,
                                    ScratchArena& arena, LeafFn&& leaf) {
  ArenaScope scope(arena);
  PrefixFold fold(g, side, plan.members.size(), fixed_size, arena);
  struct Visitor {
    PrefixFold& fold;
    LeafFn& leaf;
    void Push(VertexId v) { fold.Push(v); }
    void Pop(VertexId v) { fold.Pop(v); }
    bool Leaf() { return leaf(static_cast<const PrefixFold&>(fold)); }
  } visitor{fold, leaf};
  return WalkMaximalFairSubsets(plan, visitor);
}

/// How FilterCandidates treats a candidate fully connected to L'.
enum class FullCandidates {
  kKeep,      ///< append to `full`, and to `kept` when it meets the threshold.
  kSeparate,  ///< append to `full` only (MBEA absorbs it into R).
  kStop,      ///< stop the scan and return false (MBEA's exclusion test).
};

/// The candidate-filter loop of both branch-and-bound engines: for each
/// v in `candidates`, in order, reads c = |N(v) ∩ L'| from `counts` and
/// appends v to `full` when c == |L'| (as `mode` says) and to `kept`
/// when c >= keep_threshold. Output order is candidate order. Returns
/// false only when kStop met a fully connected candidate. `kept`/`full`
/// must have capacity >= |candidates|; `full` may be null under kStop.
bool FilterCandidates(std::span<const VertexId> candidates,
                      const CandidateCounts& counts,
                      std::uint32_t keep_threshold, FullCandidates mode,
                      IdVec* kept, IdVec* full);

/// All vertex ids of one side, ascending (the root "L = U(G)" set).
std::vector<VertexId> AllVertices(const BipartiteGraph& g, Side side);

}  // namespace fairbc

#endif  // FAIRBC_CORE_SEARCH_CONTEXT_H_
