#ifndef FAIRBC_SERVICE_QUERY_H_
#define FAIRBC_SERVICE_QUERY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
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

/// Streaming accumulator for QuerySummary's result-derived fields. Wrap()
/// returns a sink adapter that updates the accumulator then forwards to
/// `inner`; it is NOT internally synchronized, which is safe for sinks
/// handed to the pipeline.h entry points (they serialize sink invocation
/// — see the BicliqueSink contract in core/enumerate.h).
class DigestAccumulator {
 public:
  BicliqueSink Wrap(BicliqueSink inner);

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

/// Wire-name parsers/printers shared by the CLI flags and the server's
/// line protocol.
std::optional<FairModel> ParseFairModel(const std::string& name);
std::optional<FairAlgo> ParseFairAlgo(const std::string& name);
std::optional<TopKRank> ParseTopKRank(const std::string& name);
const char* ToString(FairModel model);
const char* ToString(FairAlgo algo);
const char* ToString(VertexOrdering ordering);
const char* ToString(PruningLevel level);
const char* ToString(TopKRank rank);

/// Validates a client-supplied request_id token: at most 128 bytes of
/// printable ASCII with no space, double quote or backslash (so it embeds
/// verbatim in JSON and the line protocol). Empty = absent = valid.
bool ValidRequestId(const std::string& token);

}  // namespace fairbc

#endif  // FAIRBC_SERVICE_QUERY_H_
