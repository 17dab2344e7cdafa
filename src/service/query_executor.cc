#include "service/query_executor.h"

#include <future>
#include <optional>
#include <sstream>
#include <utility>

namespace fairbc {
namespace {

/// Byte budget for encoded result payloads retained in the cache alongside
/// their summaries (ResultCache payload), so repeated include_bicliques
/// and streaming queries skip the engines entirely.
constexpr std::size_t kCacheBicliqueBytes = 16u << 20;
/// Byte budget for compacted survivor graphs kept by the ReductionCache,
/// so queries sharing (graph, side model, alpha, beta, pruning) reduce
/// once — result-cache misses and use_cache=0 runs included.
constexpr std::size_t kCacheReductionBytes = 4u << 20;
/// Capacity of the retained-trace ring (`trace` command history).
constexpr std::size_t kTraceRingCapacity = 32;
/// Span capacity of each per-query trace buffer.
constexpr std::size_t kTraceSpanCapacity = 4096;

}  // namespace

QueryExecutor::QueryExecutor(const GraphCatalog& catalog,
                             const QueryExecutorOptions& options)
    : catalog_(catalog),
      owned_metrics_(options.metrics == nullptr
                         ? std::make_unique<MetricsRegistry>()
                         : nullptr),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : owned_metrics_.get()),
      queries_(metrics_->GetCounter("fairbc_queries_total",
                                    "Queries admitted by the executor.")),
      executions_(metrics_->GetCounter("fairbc_query_executions_total",
                                       "Enumerations actually run.")),
      coalesced_(metrics_->GetCounter(
          "fairbc_query_coalesced_total",
          "Queries served by joining an identical in-flight execution.")),
      failures_(metrics_->GetCounter("fairbc_query_failures_total",
                                     "Queries completed with an error.")),
      slow_retained_(metrics_->GetCounter(
          "fairbc_slow_queries_total",
          "Query traces retained by the slow-query threshold.")),
      async_pending_(metrics_->GetGauge(
          "fairbc_inflight_queries",
          "Async queries admitted but not yet completed.")),
      query_seconds_(metrics_->GetHistogram(
          "fairbc_query_seconds", "Wall clock of executed queries.")),
      phase_construct_(metrics_->GetHistogram(
          "fairbc_query_phase_seconds", "Per-phase query latency.",
          "phase=\"construct\"")),
      phase_color_(metrics_->GetHistogram("fairbc_query_phase_seconds",
                                          "Per-phase query latency.",
                                          "phase=\"color\"")),
      phase_peel_(metrics_->GetHistogram("fairbc_query_phase_seconds",
                                         "Per-phase query latency.",
                                         "phase=\"peel\"")),
      phase_enumerate_(metrics_->GetHistogram("fairbc_query_phase_seconds",
                                              "Per-phase query latency.",
                                              "phase=\"enumerate\"")),
      kernel_calls_(metrics_->GetCounter(
          "fairbc_kernel_calls_total",
          "Intersection-kernel invocations (core/kernels.h).")),
      kernel_steps_(metrics_->GetCounter("fairbc_kernel_steps_total",
                                         "Intersection-kernel work steps.")),
      kernel_merge_(metrics_->GetCounter("fairbc_kernel_dispatch_total",
                                         "Kernel dispatch decisions.",
                                         "kernel=\"merge\"")),
      kernel_gallop_(metrics_->GetCounter("fairbc_kernel_dispatch_total",
                                          "Kernel dispatch decisions.",
                                          "kernel=\"gallop\"")),
      kernel_bitset_(metrics_->GetCounter("fairbc_kernel_dispatch_total",
                                          "Kernel dispatch decisions.",
                                          "kernel=\"bitset\"")),
      streams_(metrics_->GetCounter("fairbc_stream_queries_total",
                                    "Streaming executions admitted.")),
      stream_chunks_(metrics_->GetCounter(
          "fairbc_stream_chunks_total",
          "Stream chunks delivered (all streams and subscribers).")),
      stream_first_result_(metrics_->GetHistogram(
          "fairbc_stream_first_result_seconds",
          "Streaming admission to first delivered chunk.")),
      cache_(options.cache_capacity, metrics_, kCacheBicliqueBytes),
      reductions_(kCacheReductionBytes, metrics_),
      stream_chunk_results_(options.stream_chunk_results < 1
                                ? 1
                                : options.stream_chunk_results),
      slow_query_ms_(options.slow_query_ms),
      trace_ring_(kTraceRingCapacity),
      slow_query_log_(options.slow_query_log),
      runners_(ResolveNumThreads(options.num_threads)) {}

void QueryExecutor::FinalizeTrace(const QueryRequest& request,
                                  std::shared_ptr<TraceRecorder> trace,
                                  QueryResult* out) {
  if (trace == nullptr) return;
  std::ostringstream label;
  label << request.graph << ' ' << ToString(request.model) << '/'
        << ToString(request.algo) << " alpha=" << request.params.alpha
        << " beta=" << request.params.beta
        << " delta=" << request.params.delta;
  // A client correlation id rides into the retained trace, so a slow
  // streamed query found via `trace` can be matched to the client log.
  if (!request.request_id.empty()) label << " rid=" << request.request_id;
  trace->set_label(label.str());
  trace->set_wall_seconds(out->seconds);
  out->trace = trace;
  if (out->seconds * 1e3 >= slow_query_ms_) {
    trace_ring_.Push(trace);
    slow_retained_->Increment();
    if (slow_query_log_) slow_query_log_(request, *out);
  }
}

QueryRun QueryExecutor::Run(const QueryRequest& request,
                            const CatalogEntry& entry, TraceRecorder* trace,
                            const ChunkCallback& emit) {
  std::function<void(const QueryRequest&)> hook;
  {
    std::lock_guard<std::mutex> lock(hook_mu_);
    hook = execute_hook_;
  }
  if (hook) hook(request);
  TraceSpan span(trace, "execute");
  Timer run_timer;
  const ReductionCacheRef reductions{&reductions_, entry.version};
  QueryRequest run_request = request;
  run_request.options.reductions = &reductions;
  QueryRun run =
      RunQuery(run_request, entry.graph, stream_chunk_results_, trace, emit);
  span.End();

  const EnumStats& stats = run.summary.stats;
  executions_->Increment();
  query_seconds_->Observe(run_timer.ElapsedSeconds());
  if (stats.prune_construct_seconds > 0) {
    phase_construct_->Observe(stats.prune_construct_seconds);
  }
  if (stats.prune_color_seconds > 0) {
    phase_color_->Observe(stats.prune_color_seconds);
  }
  if (stats.prune_peel_seconds > 0) {
    phase_peel_->Observe(stats.prune_peel_seconds);
  }
  phase_enumerate_->Observe(stats.enum_seconds);
  kernel_calls_->Increment(stats.kernels.calls);
  kernel_steps_->Increment(stats.kernels.steps);
  kernel_merge_->Increment(stats.kernels.merge);
  kernel_gallop_->Increment(stats.kernels.gallop);
  kernel_bitset_->Increment(stats.kernels.bitset);
  return run;
}

QueryResult QueryExecutor::Execute(const QueryRequest& request) {
  return std::move(ExecuteBatch({request}).front());
}

void QueryExecutor::ExecuteAsync(const QueryRequest& request, Completion done) {
  Admit(request, nullptr, std::move(done));
}

void QueryExecutor::ExecuteStreaming(const QueryRequest& request,
                                     ChunkCallback on_chunk, Completion done) {
  Admit(request, std::move(on_chunk), std::move(done));
}

void QueryExecutor::ExecuteBatchAsync(
    const std::vector<QueryRequest>& requests,
    std::function<void(std::vector<QueryResult>)> done) {
  struct Batch {
    std::vector<QueryResult> results;
    std::atomic<std::size_t> remaining;
    std::function<void(std::vector<QueryResult>)> done;
  };
  if (requests.empty()) {
    done({});
    return;
  }
  auto batch = std::make_shared<Batch>(
      std::vector<QueryResult>(requests.size()), requests.size(),
      std::move(done));
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ExecuteAsync(requests[i], [batch, i](QueryResult r) {
      batch->results[i] = std::move(r);
      // acq_rel: the last completion sees every other slot's write.
      if (batch->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        batch->done(std::move(batch->results));
      }
    });
  }
}

std::vector<QueryResult> QueryExecutor::ExecuteBatch(
    const std::vector<QueryRequest>& requests) {
  // The completion owns the promise, so set_value never races its
  // destruction on this thread.
  auto promise = std::make_shared<std::promise<std::vector<QueryResult>>>();
  std::future<std::vector<QueryResult>> results = promise->get_future();
  ExecuteBatchAsync(requests, [promise](std::vector<QueryResult> r) {
    promise->set_value(std::move(r));
  });
  return results.get();
}

void QueryExecutor::Admit(const QueryRequest& request, ChunkCallback on_chunk,
                          Completion done) {
  Subscriber self{request, std::move(on_chunk), std::move(done), Timer()};
  const bool streaming = static_cast<bool>(self.on_chunk);
  queries_->Increment();
  if (streaming) streams_->Increment();
  std::shared_ptr<const CatalogEntry> entry = catalog_.Get(request.graph);
  if (entry == nullptr) {
    QueryResult out;
    out.status = Status::NotFound("unknown graph: " + request.graph);
    out.seconds = self.timer.ElapsedSeconds();
    failures_->Increment();
    self.done(std::move(out));
    return;
  }

  std::shared_ptr<TraceRecorder> trace =
      tracing_enabled() ? std::make_shared<TraceRecorder>(kTraceSpanCapacity)
                        : nullptr;
  TraceSpan root_span(trace.get(), "query");
  TraceSpan admission_span(trace.get(), "admission");

  const std::string key = CanonicalCacheKey(request, entry->version);
  // A summary-only caller is served by a cached summary; collecting and
  // streaming callers need the retained payload as well.
  const bool wants_payload = streaming || request.include_bicliques;
  // Budgeted queries never *wait* on a leader: the cache key excludes
  // budgets, so an identical-key leader may take arbitrarily longer than
  // this query's own deadline allows. They still take cache hits — they
  // just run themselves instead of subscribing to someone else's run.
  const bool unbudgeted = request.options.time_budget_seconds == 0.0 &&
                          request.options.node_budget == 0;
  // Who may lead a flight. A budgeted summary query may: should its run
  // come back partial, its subscribers are re-admitted. A budgeted
  // stream may not: its subscribers would already hold partial chunks.
  // Collecting batch queries never share — a flight carries no payload
  // for them.
  const bool may_lead = streaming ? unbudgeted : !request.include_bicliques;

  std::optional<QuerySummary> cached;
  ResultCache::Payload payload;
  std::shared_ptr<Flight> flight;
  bool leader = true;
  if (request.use_cache) {
    // Admission is atomic: cache lookup and the subscribe-or-lead choice
    // happen under one lock, and a leader publishes (cache insert +
    // flight retirement) under the same lock — so between a miss here and
    // our flight's insertion no other execution can slip through, and
    // each key has exactly one execution per cache-miss epoch (among
    // queries allowed to wait).
    std::lock_guard<std::mutex> lock(inflight_mu_);
    cached = cache_.Lookup(key, wants_payload ? &payload : nullptr);
    if (wants_payload && payload == nullptr) cached.reset();
    if (!cached && may_lead) {
      auto& flights = flights_[streaming];
      auto it = flights.find(key);
      if (it == flights.end()) {
        flight = std::make_shared<Flight>();
        flights.emplace(key, flight);
      } else if (unbudgeted) {
        flight = it->second;
        leader = false;
      }
      // else: a budgeted duplicate runs unshared (flight stays null).
    }
  }

  if (cached) {  // trace discarded: nothing ran.
    QueryResult out;
    out.summary = *cached;
    out.cache_hit = true;
    out.graph_version = entry->version;
    if (streaming) {
      // The stored bodies go out as they are: a replay encodes nothing.
      StreamFramer replay([&](const StreamChunk& c) { Deliver(self, c); });
      for (const ChunkBody& body : *payload) replay.Chunk(body, 0);
      replay.End(0);
    } else if (request.include_bicliques) {
      out.status = DecodeChunkBodies(*payload, &out.bicliques);
      if (!out.status.ok()) failures_->Increment();
    }
    out.seconds = self.timer.ElapsedSeconds();
    self.done(std::move(out));
    return;
  }
  if (!leader) {
    // The whole point of single-flight: the duplicate costs one vector
    // slot, not one parked thread. Trace discarded: the leader's run is
    // the story.
    async_pending_->Increment();
    std::unique_lock<std::mutex> lock(flight->mu);
    for (const StreamChunk& chunk : flight->backlog) Deliver(self, chunk);
    if (!flight->done) {
      flight->subscribers.push_back(std::move(self));
      return;
    }
    // The leader retired the flight after our lookup: its backlog is
    // complete and its result final, so settle right here.
    lock.unlock();
    Settle(std::move(self), flight->result);
    return;
  }

  admission_span.End();
  async_pending_->Increment();
  const double queued_start_us = trace != nullptr ? trace->NowMicros() : 0.0;
  // std::function demands a copyable target, so the move-only root span
  // rides in a shared_ptr (the task is only ever invoked once).
  auto root = std::make_shared<TraceSpan>(std::move(root_span));
  runners_.Post([this, self = std::move(self), entry = std::move(entry), key,
                 flight, trace = std::move(trace), root,
                 queued_start_us]() mutable {
    if (trace != nullptr) {
      trace->Record("queued", queued_start_us,
                    trace->NowMicros() - queued_start_us);
    }
    ChunkCallback emit;
    if (self.on_chunk) {
      emit = [&](const StreamChunk& chunk) {
        if (flight == nullptr) return Deliver(self, chunk);
        // Deliver under the flight mutex: backlog append, own callback
        // and subscriber fan-out stay atomic against late attachers.
        std::lock_guard<std::mutex> lock(flight->mu);
        flight->backlog.push_back(chunk);
        Deliver(self, chunk);
        for (Subscriber& sub : flight->subscribers) Deliver(sub, chunk);
      };
    }
    QueryRun run = Run(self.request, *entry, trace.get(), emit);
    QueryResult out;
    out.graph_version = entry->version;
    out.summary = std::move(run.summary);
    // A collecting run publishes the bodies it collected as its payload;
    // its own encoder wrote them, so they always decode.
    ResultCache::Payload collected;
    if (self.request.include_bicliques && !self.on_chunk) {
      FAIRBC_CHECK(DecodeChunkBodies(run.bodies, &out.bicliques).ok());
      collected =
          std::make_shared<std::vector<ChunkBody>>(std::move(run.bodies));
    }
    TraceSpan publish_span(trace.get(), "publish");
    Finish(key, self, flight, out, std::move(collected));
    publish_span.End();
    root->End();
    out.seconds = self.timer.ElapsedSeconds();
    FinalizeTrace(self.request, std::move(trace), &out);
    async_pending_->Decrement();
    self.done(std::move(out));
  });
}

void QueryExecutor::Finish(const std::string& key, const Subscriber& leader,
                           const std::shared_ptr<Flight>& flight,
                           const QueryResult& out,
                           ResultCache::Payload collected) {
  const bool streaming = static_cast<bool>(leader.on_chunk);
  // Partial runs (deadline/budget tripped) must not poison the cache —
  // and must not be adopted by subscribers, whose own budgets may differ.
  const bool publish =
      leader.request.use_cache && !out.summary.stats.budget_exhausted;
  ResultCache::Payload payload;
  if (publish && streaming && flight != nullptr) {
    // The run is over and this thread was the backlog's only writer, so
    // it reads the backlog without the flight mutex. Unshared (budgeted)
    // streams kept no backlog and publish the summary alone. The cache
    // shares the backlog's bodies; nothing is copied or re-encoded.
    auto bodies = std::make_shared<std::vector<ChunkBody>>();
    bodies->reserve(flight->backlog.size());
    for (const StreamChunk& c : flight->backlog) {
      if (!c.final) bodies->push_back(c.body);
    }
    payload = std::move(bodies);
  } else if (publish) {
    payload = std::move(collected);
  }
  // Cache insert and flight retirement are one step under the admission
  // lock: no duplicate can miss the cache without finding the flight.
  // The two locks never nest.
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    if (publish) cache_.Insert(key, out.summary, std::move(payload));
    if (flight != nullptr) flights_[streaming].erase(key);
  }
  if (flight == nullptr) return;
  std::vector<Subscriber> subscribers;
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->done = true;
    flight->result.status = out.status;
    flight->result.summary = out.summary;
    flight->result.graph_version = out.graph_version;
    subscribers = std::move(flight->subscribers);
  }
  for (Subscriber& sub : subscribers) Settle(std::move(sub), flight->result);
}

void QueryExecutor::Settle(Subscriber sub, const QueryResult& run) {
  async_pending_->Decrement();
  if (run.summary.stats.budget_exhausted) {
    // Partial leader run: never adopted. Re-admission usually elects the
    // first subscriber as the new leader and stacks the rest behind it
    // again. Only summary flights get here: a stream flight's leader is
    // unbudgeted, so its run always completes.
    Admit(sub.request, std::move(sub.on_chunk), std::move(sub.done));
    return;
  }
  QueryResult adopted = run;
  adopted.coalesced = true;
  adopted.seconds = sub.timer.ElapsedSeconds();
  coalesced_->Increment();
  sub.done(std::move(adopted));
}

void QueryExecutor::Deliver(Subscriber& sub, const StreamChunk& chunk) {
  if (!sub.delivered) {
    stream_first_result_->Observe(sub.timer.ElapsedSeconds());
    sub.delivered = true;
  }
  stream_chunks_->Increment();
  sub.on_chunk(chunk);
}

QueryExecutor::Telemetry QueryExecutor::telemetry() const {
  Telemetry t;
  t.cache = cache_.telemetry();
  t.reductions = reductions_.telemetry();
  t.executions = executions_->Value();
  t.coalesced = coalesced_->Value();
  return t;
}

}  // namespace fairbc
