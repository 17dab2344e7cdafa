#ifndef FAIRBC_SERVICE_QUERY_EXECUTOR_H_
#define FAIRBC_SERVICE_QUERY_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/timer.h"
#include "core/parallel.h"
#include "core/reduction_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/graph_catalog.h"
#include "service/query.h"
#include "service/result_cache.h"

namespace fairbc {

struct QueryExecutorOptions {
  /// Width of the executor's ThreadPool, the fixed set of worker threads
  /// every execution runs on — and every query's parallel reduction and
  /// search lanes too. 0 = one per hardware thread.
  unsigned num_threads = 0;
  /// ResultCache capacity in entries; 0 disables cross-query reuse.
  std::size_t cache_capacity = 256;
  /// Results per streamed chunk, and per collected payload body
  /// (RunQuery's chunk_results).
  std::size_t stream_chunk_results = 64;
  /// Registry all executor and cache telemetry reports through. null =
  /// the executor owns a private registry (exact per-instance counts —
  /// what tests and benches want); the server passes
  /// MetricsRegistry::Global() so one scrape covers the process.
  MetricsRegistry* metrics = nullptr;
  /// Per-query tracing threshold in milliseconds. < 0 (default) disables
  /// tracing entirely — the zero-overhead path. >= 0: every executed
  /// query records phase spans; those whose wall clock reaches the
  /// threshold are retained in the recent-trace ring (0 retains every
  /// executed query — how the smoke test captures a trace per query).
  double slow_query_ms = -1.0;
  /// Invoked (from the executing thread) for every retained slow-query
  /// trace; the server installs a stderr logger here.
  std::function<void(const QueryRequest&, const QueryResult&)> slow_query_log;
};

/// Concurrent query engine over a GraphCatalog: runs whole queries on a
/// fixed ThreadPool of runner threads, shares the read-only catalog entries
/// across them (no per-query graph copies), reuses summaries through an
/// LRU ResultCache, reuses graph reductions through a ReductionCache,
/// and coalesces concurrent identical queries behind one execution
/// (single-flight admission). A request's use_cache governs the result
/// cache only: every execution, use_cache=0 included, takes its reduction
/// from the ReductionCache when it holds the key.
///
/// Concurrency invariants:
///  - catalog entries are immutable shared_ptr<const>, so queries read
///    the graph with no locking; a concurrent catalog replace affects
///    only queries admitted afterwards;
///  - the cache and the in-flight table are internally synchronized; the
///    executor holds no lock while an engine runs;
///  - ExecuteAsync()/ExecuteStreaming()/ExecuteBatchAsync() are safe
///    from any thread; Execute()/ExecuteBatch() wait on the runner pool,
///    so they are safe from any thread but its own; batches may run
///    concurrently with each other and with direct calls.
///
/// Every entry point goes through one admission step that decides, under
/// one lock, who runs a query and who adopts that run's result: a cache
/// hit completes inline; a duplicate of an in-flight query (same
/// CanonicalCacheKey, same summary-or-stream kind) subscribes to the
/// leader's flight; anything else runs on the runner pool. Subscribers
/// hold zero runner threads and zero caller threads between admission
/// and completion: the leader completes each with its summary
/// (QueryResult::coalesced), and a streaming subscriber also rides the
/// leader's chunks. Execute() is ExecuteAsync() plus a wait, so only its
/// own calling thread blocks. Budget-exhausted leader runs are never
/// shared — subscribers are re-admitted (usually becoming the new
/// leader), mirroring the "partial runs are never cached" rule. Queries
/// carrying their own time/node budget never subscribe (the key excludes
/// budgets, so a leader may outlive their deadline): they run
/// themselves, at worst duplicating one execution.
///
/// Per-query deadlines/budgets ride on EnumOptions inside the request
/// (SearchBudget in the engines); a query hitting its budget reports
/// stats.budget_exhausted and is never cached.
///
/// Observability: every counter lives in the MetricsRegistry
/// (fairbc_query_* / fairbc_kernel_* families, plus the caches'
/// fairbc_cache_* and fairbc_reduction_cache_*); telemetry() reads
/// through it. With tracing enabled
/// (slow_query_ms >= 0) each executed query records a span tree —
/// query → admission / queued / execute (→ reduce → construct/color/peel,
/// enumerate → root/split) / publish — and outliers land in traces().
class QueryExecutor {
 public:
  using Completion = std::function<void(QueryResult)>;

  explicit QueryExecutor(const GraphCatalog& catalog,
                         const QueryExecutorOptions& options = {});

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  /// ExecuteAsync plus a wait on the calling thread: the query runs on a
  /// runner thread (cache hits inline) and honours the request's own
  /// num_threads. Never throws; failures (unknown graph, invalid
  /// parameters) come back in QueryResult::status.
  QueryResult Execute(const QueryRequest& request);

  /// Asynchronous admission: never blocks beyond the admission lock.
  ///  - cache hit / unknown graph → `done` is invoked inline, before the
  ///    call returns;
  ///  - duplicate of an in-flight query → `done` is registered on the
  ///    leader's flight and invoked (with coalesced=true) from the
  ///    leader's runner thread when it publishes — no thread waits;
  ///  - otherwise → the query is posted to the runner pool and `done` is
  ///    invoked from the runner thread that executed it.
  /// `done` must be callable from any thread and must not block for
  /// long: the server's reactors hand it straight to a cheap cross-
  /// thread post.
  void ExecuteAsync(const QueryRequest& request, Completion done);

  /// Streaming execution: results flow to `on_chunk` (non-empty) in
  /// bounded chunks (QueryExecutorOptions::stream_chunk_results) as the
  /// engines emit them, then `done` delivers the final summary
  /// (digest/count/stats — byte-identical to what Execute would have
  /// summarized; the summary's bicliques vector stays empty, the payload
  /// went through the chunks). Every stream carries at least one chunk,
  /// the last marked `final` — except failed admissions (unknown graph,
  /// invalid request), which invoke `done` with the error and no chunks.
  ///
  /// Admission is ExecuteAsync's. A cached payload replays inline as
  /// chunks (cache_hit): the stored bodies themselves, nothing encoded,
  /// framed exactly like a live run (nodes_so_far 0: nothing ran). A
  /// duplicate of an in-flight *streaming* query attaches to the
  /// leader's chunk stream: the backlog replays inline, live chunks
  /// follow, and `done` fires with coalesced=true. Streams carrying
  /// their own budgets neither lead nor attach, so partial streams are
  /// never shared.
  void ExecuteStreaming(const QueryRequest& request, ChunkCallback on_chunk,
                        Completion done);

  /// Admits every request through ExecuteAsync and invokes `done` once,
  /// with the results positionally aligned with the requests, from the
  /// thread that completes the last one (inline if all complete at
  /// admission). Repeated parameters inside one batch are served from
  /// the cache or coalesced behind the one in-flight execution. Each
  /// query honours its own num_threads: its helper lanes queue on the
  /// same pool behind busy runners, so a batch never runs more threads
  /// than the pool has.
  void ExecuteBatchAsync(const std::vector<QueryRequest>& requests,
                         std::function<void(std::vector<QueryResult>)> done);

  /// ExecuteBatchAsync plus a wait on the calling thread.
  std::vector<QueryResult> ExecuteBatch(
      const std::vector<QueryRequest>& requests);

  /// Executor-level counters on top of the cache's own telemetry — a
  /// registry read-through (single source of truth), kept as a struct so
  /// the `cache` JSON shape stays stable.
  struct Telemetry {
    ResultCache::Telemetry cache;
    ReductionCache::Telemetry reductions;
    std::uint64_t executions = 0;  ///< enumerations actually run.
    std::uint64_t coalesced = 0;   ///< queries served by joining a leader.
  };
  Telemetry telemetry() const;

  std::uint64_t execution_count() const { return executions_->Value(); }
  std::uint64_t coalesced_count() const { return coalesced_->Value(); }

  /// Executions admitted but not yet completed (leaders + unshared runs
  /// + subscribers). Telemetry/test aid.
  std::uint64_t async_pending() const {
    const std::int64_t v = async_pending_->Value();
    return v > 0 ? static_cast<std::uint64_t>(v) : 0;
  }

  /// Test seam: invoked on the executing thread right before each real
  /// enumeration (leaders and unshared runs; never cache hits or
  /// coalesced subscribers). Tests use it to hold a leader in flight
  /// deterministically. Not for production use. Mutex-guarded so a test
  /// may install/clear it while runner threads are live.
  void SetExecuteHook(std::function<void(const QueryRequest&)> hook) {
    std::lock_guard<std::mutex> lock(hook_mu_);
    execute_hook_ = std::move(hook);
  }

  ResultCache& cache() { return cache_; }
  const GraphCatalog& catalog() const { return catalog_; }
  unsigned num_threads() const { return runners_.num_threads(); }

  /// The registry this executor reports into (never null).
  MetricsRegistry* metrics() const { return metrics_; }
  /// Ring of retained slow-query traces (the `trace` command's source).
  TraceRing& traces() { return trace_ring_; }
  const TraceRing& traces() const { return trace_ring_; }
  bool tracing_enabled() const { return slow_query_ms_ >= 0.0; }
  double slow_query_ms() const { return slow_query_ms_; }

 private:
  /// One admitted caller: a leader (or unshared run) on its runner task,
  /// or a duplicate subscribed to a leader's flight. An empty `on_chunk`
  /// marks a summary-only caller.
  struct Subscriber {
    QueryRequest request;  ///< kept for re-admission on partial runs.
    ChunkCallback on_chunk;
    Completion done;
    Timer timer;  ///< started at admission.
    bool delivered = false;  ///< first chunk seen (latency recorded).
  };

  /// One in-flight execution that identical duplicates subscribe to.
  /// Flights are keyed by (cache key, streaming): a summary duplicate
  /// never attaches to a stream leader, nor the reverse. Everything here
  /// is guarded by `mu`. A streaming leader appends each chunk to the
  /// backlog and fans it out under `mu`, and a late subscriber replays
  /// the backlog under `mu` before registering, so every subscriber sees
  /// every chunk exactly once, in order; summary flights keep no backlog.
  /// The leader retires the flight from the table (under inflight_mu_)
  /// before `done` flips, so a subscriber that found the flight just
  /// before then settles inline from `result`.
  struct Flight {
    std::mutex mu;
    std::vector<StreamChunk> backlog;
    std::vector<Subscriber> subscribers;
    bool done = false;
    /// The leader's status, summary and graph version — exactly what a
    /// subscriber adopts; valid once done.
    QueryResult result;
  };

  /// The one admission path behind every entry point: cache lookup,
  /// subscribe-or-lead, and the runner task that executes a leader (or
  /// an unshared run) and publishes it.
  void Admit(const QueryRequest& request, ChunkCallback on_chunk,
             Completion done);

  /// Leader epilogue: publishes a complete run to the cache (with its
  /// payload: the stream's backlog, or `collected`, the bodies a
  /// collecting run gathered), retires the flight and settles its
  /// subscribers. `flight` is null for unshared runs.
  void Finish(const std::string& key, const Subscriber& leader,
              const std::shared_ptr<Flight>& flight, const QueryResult& out,
              ResultCache::Payload collected);

  /// Completes a subscriber with the leader's result (coalesced), or
  /// re-admits it when the leader's run was partial.
  void Settle(Subscriber sub, const QueryResult& run);

  /// Hands one chunk to a streaming caller, recording its first-chunk
  /// latency and the chunk counter.
  void Deliver(Subscriber& sub, const StreamChunk& chunk);

  /// One real execution: the execute hook, then RunQuery on the entry's
  /// graph (the query's whole result path; `emit` empty = not streaming)
  /// with the reduction cache under the entry's version, inside an
  /// "execute" span on `trace` (null = untraced), then folds the run's
  /// stats into the registry histograms and kernel counters.
  QueryRun Run(const QueryRequest& request, const CatalogEntry& entry,
               TraceRecorder* trace, const ChunkCallback& emit);

  /// Stamps metadata on the recorder, attaches it to `out`, and retains
  /// it in the ring (+ slow-query log) when out->seconds reaches the
  /// threshold. Requires out->seconds to be final.
  void FinalizeTrace(const QueryRequest& request,
                     std::shared_ptr<TraceRecorder> trace, QueryResult* out);

  const GraphCatalog& catalog_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;  // before cache_: it
  MetricsRegistry* metrics_;                        // registers counters.
  Counter* queries_;         ///< admissions (every entry point).
  Counter* executions_;      ///< enumerations actually run.
  Counter* coalesced_;       ///< served by joining a leader.
  Counter* failures_;        ///< results with !status.ok().
  Counter* slow_retained_;   ///< traces retained in the ring.
  Gauge* async_pending_;     ///< admitted-but-uncompleted queries.
  Histogram* query_seconds_;
  Histogram* phase_construct_;
  Histogram* phase_color_;
  Histogram* phase_peel_;
  Histogram* phase_enumerate_;
  Counter* kernel_calls_;
  Counter* kernel_steps_;
  Counter* kernel_merge_;
  Counter* kernel_gallop_;
  Counter* kernel_bitset_;
  Counter* streams_;        ///< ExecuteStreaming admissions.
  Counter* stream_chunks_;  ///< chunks delivered (all streams, all subs).
  Histogram* stream_first_result_;  ///< admission → first chunk latency.
  ResultCache cache_;
  /// Completed reductions by (graph version, side model, alpha, beta,
  /// pruning), shared by every execution whatever its use_cache.
  ReductionCache reductions_;
  const std::size_t stream_chunk_results_;
  const double slow_query_ms_;
  TraceRing trace_ring_;
  std::function<void(const QueryRequest&, const QueryResult&)>
      slow_query_log_;

  std::mutex inflight_mu_;
  /// In-flight flights by cache key, guarded by inflight_mu_; index 0
  /// holds summary flights, index 1 streaming ones.
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_[2];
  std::mutex hook_mu_;
  std::function<void(const QueryRequest&)> execute_hook_;  // guarded by hook_mu_

  // The runners: each execution is one posted task, and its parallel
  // phases borrow the same pool (ThreadPool::Current()). Declared last so
  // it drains queued executions while every other member is alive.
  ThreadPool runners_;
};

}  // namespace fairbc

#endif  // FAIRBC_SERVICE_QUERY_EXECUTOR_H_
