#include "service/response_json.h"

#include <cstdio>
#include <sstream>

namespace fairbc {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonHex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string JsonDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string StatsJson(const EnumStats& stats) {
  std::ostringstream os;
  os << "{\"results\":" << stats.num_results
     << ",\"nodes\":" << stats.search_nodes
     << ",\"mbc\":" << stats.maximal_bicliques_visited
     << ",\"splits\":" << stats.split_subtrees
     << ",\"prune_s\":" << JsonDouble(stats.prune_seconds)
     << ",\"prune_construct_s\":" << JsonDouble(stats.prune_construct_seconds)
     << ",\"prune_color_s\":" << JsonDouble(stats.prune_color_seconds)
     << ",\"prune_peel_s\":" << JsonDouble(stats.prune_peel_seconds)
     << ",\"enum_s\":" << JsonDouble(stats.enum_seconds)
     << ",\"remaining_upper\":" << stats.remaining_upper
     << ",\"remaining_lower\":" << stats.remaining_lower
     << ",\"peak_struct_bytes\":" << stats.peak_struct_bytes
     << ",\"kernel_calls\":" << stats.kernels.calls
     << ",\"kernel_steps\":" << stats.kernels.steps
     << ",\"kernel_merge\":" << stats.kernels.merge
     << ",\"kernel_gallop\":" << stats.kernels.gallop
     << ",\"kernel_bitset\":" << stats.kernels.bitset
     << ",\"budget_exhausted\":"
     << (stats.budget_exhausted ? "true" : "false")
     << ",\"reduce_cached\":" << (stats.reduction_cached ? "true" : "false")
     << "}";
  return os.str();
}

std::string QueryParamsSummaryJson(FairModel model, FairAlgo algo,
                                   const FairBicliqueParams& params,
                                   const QuerySummary& summary) {
  std::ostringstream os;
  os << "\"model\":\"" << ToString(model) << "\",\"algo\":\""
     << ToString(algo) << "\",\"alpha\":" << params.alpha
     << ",\"beta\":" << params.beta << ",\"delta\":" << params.delta
     << ",\"theta\":" << JsonDouble(params.theta)
     << ",\"count\":" << summary.count << ",\"digest\":\""
     << JsonHex64(summary.digest) << "\",\"max_upper\":" << summary.max_upper
     << ",\"max_lower\":" << summary.max_lower;
  return os.str();
}

std::string QueryResultJson(const QueryRequest& request,
                            const QueryResult& result) {
  if (!result.status.ok()) return ErrorJson(result.status);
  std::ostringstream os;
  os << "{\"ok\":true,\"cmd\":\"query\",";
  if (!request.request_id.empty()) {
    os << "\"request_id\":\"" << JsonEscape(request.request_id) << "\",";
  }
  os << "\"graph\":\"" << JsonEscape(request.graph) << "\",\"version\":\""
     << JsonHex64(result.graph_version) << "\",";
  if (request.top_k > 0) {
    os << "\"top_k\":" << request.top_k << ",\"rank\":\""
       << ToString(request.rank) << "\",";
  }
  os << QueryParamsSummaryJson(request.model, request.algo, request.params,
                               result.summary)
     << ",\"cache_hit\":" << (result.cache_hit ? "true" : "false")
     << ",\"coalesced\":" << (result.coalesced ? "true" : "false")
     << ",\"seconds\":" << JsonDouble(result.seconds)
     << ",\"stats\":" << StatsJson(result.summary.stats) << "}";
  return os.str();
}

std::string BicliquesJson(const std::vector<Biclique>& bicliques) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < bicliques.size(); ++i) {
    if (i > 0) os << ',';
    os << "{\"upper\":[";
    for (std::size_t j = 0; j < bicliques[i].upper.size(); ++j) {
      if (j > 0) os << ',';
      os << bicliques[i].upper[j];
    }
    os << "],\"lower\":[";
    for (std::size_t j = 0; j < bicliques[i].lower.size(); ++j) {
      if (j > 0) os << ',';
      os << bicliques[i].lower[j];
    }
    os << "]}";
  }
  os << ']';
  return os.str();
}

std::string StreamChunkJson(const QueryRequest& request,
                            const StreamChunk& chunk) {
  std::ostringstream os;
  os << "{\"ok\":true,\"cmd\":\"chunk\",";
  if (!request.request_id.empty()) {
    os << "\"request_id\":\"" << JsonEscape(request.request_id) << "\",";
  }
  os << "\"seq\":" << chunk.seq
     << ",\"results_so_far\":" << chunk.results_so_far
     << ",\"nodes_so_far\":" << chunk.nodes_so_far
     << ",\"final\":" << (chunk.final ? "true" : "false");
  // The executor's own encoder wrote the body, so it always decodes.
  std::vector<Biclique> bicliques;
  if (chunk.body.bytes != nullptr) {
    FAIRBC_CHECK(DecodeChunkBody(*chunk.body.bytes, &bicliques).ok());
  }
  os << ",\"bicliques\":" << BicliquesJson(bicliques) << "}";
  return os.str();
}

std::string ExecutorTelemetryJson(const QueryExecutor::Telemetry& t) {
  std::ostringstream os;
  os << "{\"ok\":true,\"cmd\":\"cache\",\"hits\":" << t.cache.hits
     << ",\"misses\":" << t.cache.misses
     << ",\"insertions\":" << t.cache.insertions
     << ",\"evictions\":" << t.cache.evictions
     << ",\"entries\":" << t.cache.entries
     << ",\"capacity\":" << t.cache.capacity
     << ",\"hit_rate\":" << JsonDouble(t.cache.HitRate())
     << ",\"payload_hits\":" << t.cache.payload_hits
     << ",\"payload_evictions\":" << t.cache.payload_evictions
     << ",\"payload_bytes\":" << t.cache.payload_bytes
     << ",\"payload_byte_budget\":" << t.cache.payload_byte_budget
     << ",\"executions\":" << t.executions
     << ",\"coalesced\":" << t.coalesced
     << ",\"reduction_hits\":" << t.reductions.hits
     << ",\"reduction_misses\":" << t.reductions.misses
     << ",\"reduction_evictions\":" << t.reductions.evictions
     << ",\"reduction_bytes\":" << t.reductions.bytes
     << ",\"reduction_entries\":" << t.reductions.entries << "}";
  return os.str();
}

std::string CatalogEntryJson(const CatalogEntry& entry) {
  std::ostringstream os;
  os << "{\"name\":\"" << JsonEscape(entry.name) << "\",\"version\":\""
     << JsonHex64(entry.version) << "\",\"source\":\""
     << JsonEscape(entry.source)
     << "\",\"upper\":" << entry.graph.NumUpper()
     << ",\"lower\":" << entry.graph.NumLower()
     << ",\"edges\":" << entry.graph.NumEdges()
     << ",\"memory_bytes\":" << entry.graph.MemoryBytes()
     << ",\"snapshot_version\":" << entry.snapshot_version
     << ",\"source_bytes\":" << entry.source_bytes
     << ",\"load_seconds\":" << JsonDouble(entry.load_seconds) << "}";
  return os.str();
}

std::string ErrorJson(const std::string& message) {
  return "{\"ok\":false,\"error\":\"" + JsonEscape(message) + "\"}";
}

std::string ErrorJson(const Status& status) {
  return ErrorJson(status.ToString());
}

std::string TypedErrorJson(const std::string& code, const std::string& message) {
  return "{\"ok\":false,\"code\":\"" + JsonEscape(code) + "\",\"error\":\"" +
         JsonEscape(message) + "\"}";
}

}  // namespace fairbc
