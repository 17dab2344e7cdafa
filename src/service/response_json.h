#ifndef FAIRBC_SERVICE_RESPONSE_JSON_H_
#define FAIRBC_SERVICE_RESPONSE_JSON_H_

#include <cstdint>
#include <string>

#include "core/enumerate.h"
#include "service/graph_catalog.h"
#include "service/query.h"
#include "service/query_executor.h"
#include "service/result_cache.h"

namespace fairbc {

/// Single-line JSON serializers shared by `fairbc_cli --output=json` and
/// the fairbc_server line protocol: same keys, same formatting, so the
/// CI smoke can compare CLI output against server responses textually.
/// All emitters produce compact JSON (no spaces after ':'), and 64-bit
/// hashes/versions are hex strings ("0x...") to stay safely inside JSON
/// number ranges.

std::string JsonEscape(const std::string& s);

/// `"0x%016x"` form used for digests and graph versions.
std::string JsonHex64(std::uint64_t v);

/// Double with round-trip precision (shortest form via %.17g is overkill
/// for timings; %.9g keeps lines short and sub-nanosecond exact).
std::string JsonDouble(double v);

/// EnumStats as a flat object mirroring EnumStats::DebugString's fields.
std::string StatsJson(const EnumStats& stats);

/// The braceless `"model":...,...,"max_lower":N` fragment describing a
/// query's parameters and its result summary. The server's query
/// responses and `fairbc_cli enum --output=json` both embed exactly
/// this fragment — one emitter, so the key set can never drift apart
/// (the CI smoke compares the two textually).
std::string QueryParamsSummaryJson(FairModel model, FairAlgo algo,
                                   const FairBicliqueParams& params,
                                   const QuerySummary& summary);

/// Full query response (the server's `query` reply; the CLI's enum
/// --output=json embeds the same object under identical keys). Requests
/// carrying a request_id echo it as "request_id"; top-k requests add
/// "top_k"/"rank" — absent otherwise, so legacy responses stay
/// byte-identical.
std::string QueryResultJson(const QueryRequest& request,
                            const QueryResult& result);

/// JSON array of bicliques: [{"upper":[...],"lower":[...]},...].
std::string BicliquesJson(const std::vector<Biclique>& bicliques);

/// One streamed chunk of a `query ... stream=1` line-protocol response:
/// {"ok":true,"cmd":"chunk","seq":N,...,"bicliques":[...]} — one line per
/// chunk, followed by the regular query reply line as the end-of-stream
/// marker. Mirrors the binary protocol's kReplyChunk/kReplyEnd framing;
/// the chunk's encoded body is decoded into the "bicliques" array.
std::string StreamChunkJson(const QueryRequest& request,
                            const StreamChunk& chunk);

/// Telemetry reply for the server's `cache` command: the ResultCache
/// counters, the executor's single-flight counters ("executions",
/// "coalesced") and the ReductionCache's ("reduction_hits",
/// "reduction_misses", "reduction_evictions", "reduction_bytes",
/// "reduction_entries").
std::string ExecutorTelemetryJson(const QueryExecutor::Telemetry& t);

/// One catalog entry (the server's `catalog` reply lists these).
std::string CatalogEntryJson(const CatalogEntry& entry);

/// Uniform error reply: {"ok":false,"error":"..."}.
std::string ErrorJson(const std::string& message);
std::string ErrorJson(const Status& status);

/// Typed error reply: {"ok":false,"code":"busy","error":"..."} — the line
/// protocol's mirror of the binary protocol's wire::ErrorCode, so clients
/// on either protocol can branch on the same category strings.
std::string TypedErrorJson(const std::string& code, const std::string& message);

}  // namespace fairbc

#endif  // FAIRBC_SERVICE_RESPONSE_JSON_H_
