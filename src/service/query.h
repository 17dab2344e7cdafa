#ifndef FAIRBC_SERVICE_QUERY_H_
#define FAIRBC_SERVICE_QUERY_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/chunk_body.h"
#include "core/enumerate.h"
#include "core/pipeline.h"
#include "core/verify.h"
#include "obs/trace.h"

namespace fairbc {

/// One request against the query service: which catalog graph to
/// interrogate, which fairness model/engine, and the model parameters.
/// EnumOptions carries ordering/pruning plus per-query deadline/budget
/// (time_budget_seconds / node_budget → the engines' shared SearchBudget)
/// and num_threads, the lane count of the query's parallel reduction and
/// search. Through QueryExecutor those lanes run on the executor's pool,
/// so concurrent queries share its threads instead of adding their own.
struct QueryRequest {
  std::string graph;  ///< GraphCatalog name.
  FairModel model = FairModel::kSsfbc;
  FairAlgo algo = FairAlgo::kPlusPlus;
  FairBicliqueParams params;
  EnumOptions options;
  bool use_cache = true;
  /// Collect the bicliques themselves into QueryResult::bicliques (the
  /// summary alone is returned otherwise). Collected runs are served from
  /// cache only when the cache retained the result *payload* under its
  /// byte budget (ResultCacheOptions::biclique_byte_budget); either way
  /// they publish their summary for later summary-only queries.
  bool include_bicliques = false;
  /// Keep only the `top_k` best results under `rank` (0 = enumerate
  /// everything, the default). Top-k runs feed the current k-th best back
  /// into the engines as a branch-and-bound prune bound; the output
  /// equals the top k of the full enumeration under (rank desc, canonical
  /// biclique order asc). Part of the cache key.
  std::uint32_t top_k = 0;
  TopKRank rank = TopKRank::kWeight;
  /// Optional client-supplied correlation token (traceparent-style),
  /// echoed verbatim in responses and stamped onto retained trace spans.
  /// Never part of a query's identity (cache key / single-flight).
  std::string request_id;
};

/// Order-independent 64-bit content hash of one biclique.
std::uint64_t BicliqueHash(const Biclique& b);

/// Cacheable summary of one finished query. The digest is the wrapping
/// sum of BicliqueHash over the result set — independent of emission
/// order, so serial and parallel runs of the same query agree.
struct QuerySummary {
  std::uint64_t count = 0;
  std::uint64_t digest = 0;
  std::uint32_t max_upper = 0;  ///< largest |L| over the result set.
  std::uint32_t max_lower = 0;  ///< largest |R| over the result set.
  EnumStats stats;              ///< per-query stats of the producing run.
};

/// Streaming accumulator for QuerySummary's result-derived fields. Add()
/// folds in one result. It is NOT internally synchronized, which is safe
/// inside sinks handed to RunEnumeration (core/pipeline.h; it serializes
/// sink invocation — see the BicliqueSink contract in core/enumerate.h).
class DigestAccumulator {
 public:
  void Add(const Biclique& b);

  std::uint64_t count() const { return count_; }
  std::uint64_t digest() const { return digest_; }
  std::uint32_t max_upper() const { return max_upper_; }
  std::uint32_t max_lower() const { return max_lower_; }

  /// Copies the accumulated fields into `summary` (stats untouched).
  void FillSummary(QuerySummary* summary) const;

 private:
  std::uint64_t count_ = 0;
  std::uint64_t digest_ = 0;
  std::uint32_t max_upper_ = 0;
  std::uint32_t max_lower_ = 0;
};

/// One streamed slice of a query's result set (RunQuery's stream,
/// QueryExecutor::ExecuteStreaming).
struct StreamChunk {
  std::uint64_t seq = 0;  ///< 1-based chunk index within the stream.
  /// The slice's results as one encoded chunk body (core/chunk_body.h;
  /// DecodeChunkBody reads it back). Encoded once by the run's ChunkSink;
  /// the flight backlog, every subscriber, the payload cache and the
  /// server share its bytes. Empty on the final marker.
  ChunkBody body;
  /// Cooperative checkpoint: results delivered up to and including this
  /// chunk, and search nodes the run's SearchBudget had accounted when
  /// the chunk was cut (0 for cache-replayed streams — nothing ran).
  std::uint64_t results_so_far = 0;
  std::uint64_t nodes_so_far = 0;
  bool final = false;  ///< last chunk of the stream.
};

/// Invoked once per chunk, strictly in stream order, from whichever
/// thread produced it. Must not block for long and, under QueryExecutor,
/// must not call back into the executor (the server's reactors hand
/// chunks straight to a cross-thread post).
using ChunkCallback = std::function<void(const StreamChunk&)>;

/// Frames a result sequence as a stream: chunks with 1-based contiguous
/// seq and cumulative checkpoints, then an empty `final` marker carrying
/// the totals. Live runs (RunQuery) feed it the bodies their ChunkSink
/// encodes and payload-cache hits the stored bodies, so a replayed
/// stream is framed exactly like the run that filled the cache.
class StreamFramer {
 public:
  explicit StreamFramer(ChunkCallback emit) : emit_(std::move(emit)) {}

  void Chunk(ChunkBody body, std::uint64_t nodes);
  void End(std::uint64_t nodes);

 private:
  const ChunkCallback emit_;
  std::uint64_t seq_ = 0;
  std::uint64_t results_ = 0;
};

/// What one run of a query delivered besides its stream.
struct QueryRun {
  QuerySummary summary;
  /// The result set as the chunk bodies a stream of it would carry
  /// (DecodeChunkBodies reads them back); filled iff the request asked
  /// for its bicliques and the run did not stream.
  std::vector<ChunkBody> bodies;
};

/// Runs `request` against `graph` and owns the query's whole result path,
/// the one wiring behind QueryExecutor and `fairbc_cli enum`:
///  - with `stream` set, a run-owned SearchBudget becomes the engines'
///    shared budget (chunk checkpoints read its node count) and the
///    results go to `stream` in chunks of at most `chunk_results`, framed
///    by a StreamFramer and closed by its final marker; a "stream" span
///    on `trace` covers that post-enumeration delivery tail;
///  - otherwise, when request.include_bicliques, they are collected into
///    QueryRun::bodies, `chunk_results` per body;
///  - top_k > 0 puts a TopKSink in front (its prune bound goes to the
///    engines), then replays the kept set best first through the rest,
///    and stats.num_results counts the kept results.
/// The summary's count and digest describe exactly the delivered set.
/// `trace` (null = untraced) receives the engines' phase spans. The
/// pipeline serializes sink invocation, so this is safe at any
/// num_threads.
QueryRun RunQuery(const QueryRequest& request, const BipartiteGraph& graph,
                  std::size_t chunk_results, TraceRecorder* trace = nullptr,
                  const ChunkCallback& stream = nullptr);

/// Outcome of one executed (or cache-served, or coalesced) query.
struct QueryResult {
  Status status = Status::OK();
  QuerySummary summary;
  bool cache_hit = false;
  /// True when this query joined an identical in-flight execution
  /// (single-flight admission) and shares that run's summary instead of
  /// having run the engines itself.
  bool coalesced = false;
  double seconds = 0.0;  ///< wall clock incl. catalog/cache bookkeeping.
  std::uint64_t graph_version = 0;
  std::vector<Biclique> bicliques;  ///< filled iff include_bicliques.
  /// Phase spans of this execution, when the executor ran with tracing
  /// enabled (QueryExecutorOptions::slow_query_ms >= 0) and this result
  /// came from a real enumeration (never cache hits or coalesced
  /// waiters). The server appends its serialize span post-hoc; consumers
  /// render it with TraceEventsJson.
  std::shared_ptr<TraceRecorder> trace;
};

/// Canonical ResultCache key: everything that determines the result set
/// and its summary — graph content version, model, algo, alpha, beta,
/// delta, theta, ordering, pruning, and (for top-k queries) k and rank.
/// Thread count is deliberately excluded (it never changes the result
/// set); budgets are excluded because budget-limited (partial) runs are
/// never inserted; request_id is correlation metadata, not identity.
std::string CanonicalCacheKey(const QueryRequest& req,
                              std::uint64_t graph_version);

// --- What a query request may hold ----------------------------------------
// `fairbc_cli enum`/`verify`, the line protocol (BuildQueryRequest) and the
// binary protocol (wire::DecodeQueryPayload) map their own syntax onto the
// name tables and numeric windows below, and keep none of their own.

/// One entry of an enum's name table.
template <typename E>
struct EnumName {
  const char* name;
  E value;
};

/// The name tables, in wire-byte order (the binary protocol carries an
/// entry's index); the first entry is the request's default.
std::span<const EnumName<FairModel>> NamesOf(FairModel);
std::span<const EnumName<FairAlgo>> NamesOf(FairAlgo);
std::span<const EnumName<VertexOrdering>> NamesOf(VertexOrdering);
std::span<const EnumName<PruningLevel>> NamesOf(PruningLevel);
std::span<const EnumName<TopKRank>> NamesOf(TopKRank);

/// An enum with a name table.
template <typename E>
concept RequestEnum = requires(E value) { NamesOf(value); };

/// `value`'s index in its table: its byte on the wire.
template <RequestEnum E>
std::uint8_t EnumIndex(E value) {
  const auto names = NamesOf(value);
  std::size_t i = 0;
  while (i + 1 < names.size() && names[i].value != value) ++i;
  return static_cast<std::uint8_t>(i);
}

/// The entry at wire byte `index`, or nullopt past the table's end.
template <RequestEnum E>
std::optional<E> EnumAt(std::size_t index) {
  const auto names = NamesOf(E{});
  if (index >= names.size()) return std::nullopt;
  return names[index].value;
}

/// The entry called `name`, or nullopt.
template <RequestEnum E>
std::optional<E> ParseName(std::string_view name) {
  for (const EnumName<E>& entry : NamesOf(E{})) {
    if (name == entry.name) return entry.value;
  }
  return std::nullopt;
}

/// `value`'s name ("ssfbc", "pp", ...).
template <RequestEnum E>
const char* ToString(E value) {
  return NamesOf(value)[EnumIndex(value)].name;
}

/// A text door's view of one request: `value(field)` is its text for a
/// field named as the line protocol names it ("top_k"), nullopt when
/// absent; `label(field)` is the door's spelling in messages ("--top-k").
/// Field names are views of static strings.
struct QueryText {
  std::function<std::optional<std::string>(std::string_view field)> value;
  std::function<std::string(std::string_view field)> label;
};

/// Asks `text` for model, algo, ordering, pruning, rank, alpha, beta,
/// delta, theta, budget, threads and top_k, in that order; an absent field
/// keeps QueryRequest's default. A name outside its table ("bad LABEL
/// (a|b|c)"), a number ParseNumber refuses, or one outside its window
/// ("LABEL must be in [0, 1000000000]") is InvalidArgument. Integers are
/// checked as int64, before any unsigned cast.
Result<QueryRequest> ReadQueryText(const QueryText& text);

/// Checks every numeric field of `request` against its window (the
/// binary door, whose fields arrive typed).
Status CheckQueryRequest(const QueryRequest& request);

/// Validates a client-supplied request_id token: at most 128 bytes of
/// printable ASCII with no space, double quote or backslash (so it embeds
/// verbatim in JSON and the line protocol). Empty = absent = valid.
bool ValidRequestId(const std::string& token);

}  // namespace fairbc

#endif  // FAIRBC_SERVICE_QUERY_H_
