#include "service/query.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>

#include "core/result_sink.h"
#include "core/search_context.h"
#include "graph/snapshot.h"

namespace fairbc {

std::uint64_t BicliqueHash(const Biclique& b) {
  // FNV over the upper ids, a side separator, then the lower ids. The
  // per-biclique hash is order-*dependent* (vertex lists are canonically
  // sorted), the set digest built from it is order-independent.
  std::uint64_t state = Fnv1a64(b.upper.data(),
                                b.upper.size() * sizeof(VertexId));
  const std::uint32_t separator = 0x5eb1c11eu;
  state = Fnv1a64(&separator, sizeof(separator), state);
  return Fnv1a64(b.lower.data(), b.lower.size() * sizeof(VertexId), state);
}

void DigestAccumulator::Add(const Biclique& b) {
  ++count_;
  digest_ += BicliqueHash(b);
  max_upper_ = std::max(max_upper_, static_cast<std::uint32_t>(b.upper.size()));
  max_lower_ = std::max(max_lower_, static_cast<std::uint32_t>(b.lower.size()));
}

void DigestAccumulator::FillSummary(QuerySummary* summary) const {
  summary->count = count_;
  summary->digest = digest_;
  summary->max_upper = max_upper_;
  summary->max_lower = max_lower_;
}

void StreamFramer::Chunk(ChunkBody body, std::uint64_t nodes) {
  results_ += body.count;
  StreamChunk chunk;
  chunk.seq = ++seq_;
  chunk.body = std::move(body);
  chunk.results_so_far = results_;
  chunk.nodes_so_far = nodes;
  emit_(chunk);
}

void StreamFramer::End(std::uint64_t nodes) {
  StreamChunk end;
  end.seq = ++seq_;
  end.results_so_far = results_;
  end.nodes_so_far = nodes;
  end.final = true;
  emit_(end);
}

QueryRun RunQuery(const QueryRequest& request, const BipartiteGraph& graph,
                  std::size_t chunk_results, TraceRecorder* trace,
                  const ChunkCallback& stream) {
  QueryRun run;
  EnumOptions options = request.options;
  options.trace = trace;
  // Run-owned budget when streaming: chunk checkpoints read the node
  // count mid-run, which the engines' internal budget would keep private.
  std::optional<SearchBudget> budget;
  std::optional<StreamFramer> framer;
  if (stream) {
    budget.emplace(options);
    options.shared_budget = &*budget;
    framer.emplace(stream);
  }

  // The one terminal stage: bounded bodies for the stream framer or the
  // collected set; none for a summary-only run. ChunkSink's guaranteed
  // empty-run flush is skipped: the final marker carries the totals, and
  // an empty set collects no body.
  std::optional<ChunkSink> chunks;
  if (stream || request.include_bicliques) {
    chunks.emplace(
        chunk_results,
        [&](ChunkBody&& body, const StreamCheckpoint& checkpoint) {
          if (body.count == 0) return true;
          if (framer) {
            framer->Chunk(std::move(body), checkpoint.nodes);
          } else {
            run.bodies.push_back(std::move(body));
          }
          return true;
        },
        budget ? &*budget : nullptr);
  }
  ResultSink* const terminal = chunks ? &*chunks : nullptr;
  DigestAccumulator digest;
  BicliqueSink deliver = [&digest, terminal](const Biclique& b) {
    digest.Add(b);
    return terminal == nullptr || terminal->Accept(b);
  };

  if (request.top_k > 0) {
    // The keeper absorbs the full emission, publishing the k-th best into
    // the engines' prune bound as it fills; the final ranking then
    // replays through digest and terminal, so the summary and any stream
    // describe exactly the kept set, best first.
    TopKSink topk(request.top_k, request.rank);
    options.topk = topk.prune_bound();
    run.summary.stats = RunEnumeration(graph, request.model, request.algo,
                                       request.params, options, topk.AsSink());
    topk.Finish();
    const std::vector<Biclique> best = topk.Take();
    for (const Biclique& b : best) {
      if (!deliver(b)) break;
    }
    run.summary.stats.num_results = best.size();
  } else {
    run.summary.stats = RunEnumeration(graph, request.model, request.algo,
                                       request.params, options, deliver);
  }
  digest.FillSummary(&run.summary);
  if (chunks) {
    // A stream's "stream" span covers the post-enumeration delivery tail
    // (final chunk flush + end-of-stream marker): mid-run flushes happen
    // inside the enumerate span, and Chrome trace complete events on one
    // thread must nest — a first-flush-to-last span would straddle
    // enumerate's boundary.
    TraceSpan span(framer ? trace : nullptr, "stream");
    chunks->Finish();
    if (framer) framer->End(budget->nodes());
  }
  return run;
}

std::string CanonicalCacheKey(const QueryRequest& req,
                              std::uint64_t graph_version) {
  char buf[192];
  // %.17g round-trips every double, so distinct thetas never collide.
  std::snprintf(buf, sizeof(buf), "@%016llx|%s|%s|a=%u|b=%u|d=%u|t=%.17g|%s|%s",
                static_cast<unsigned long long>(graph_version),
                ToString(req.model), ToString(req.algo), req.params.alpha,
                req.params.beta, req.params.delta, req.params.theta,
                ToString(req.options.ordering), ToString(req.options.pruning));
  std::string key = req.graph + buf;
  if (req.top_k > 0) {
    // Top-k results are a different result set than the full enumeration;
    // full-enumeration keys stay byte-identical to previous releases.
    std::snprintf(buf, sizeof(buf), "|k=%u|rank=%s", req.top_k,
                  ToString(req.rank));
    key += buf;
  }
  return key;
}

std::optional<FairModel> ParseFairModel(const std::string& name) {
  if (name == "ssfbc") return FairModel::kSsfbc;
  if (name == "bsfbc") return FairModel::kBsfbc;
  return std::nullopt;
}

std::optional<FairAlgo> ParseFairAlgo(const std::string& name) {
  if (name == "pp") return FairAlgo::kPlusPlus;
  if (name == "bcem") return FairAlgo::kBcem;
  if (name == "naive") return FairAlgo::kNaive;
  return std::nullopt;
}

const char* ToString(FairModel model) {
  return model == FairModel::kBsfbc ? "bsfbc" : "ssfbc";
}

const char* ToString(FairAlgo algo) {
  switch (algo) {
    case FairAlgo::kBcem:
      return "bcem";
    case FairAlgo::kNaive:
      return "naive";
    case FairAlgo::kPlusPlus:
      break;
  }
  return "pp";
}

std::optional<TopKRank> ParseTopKRank(const std::string& name) {
  if (name == "weight") return TopKRank::kWeight;
  if (name == "size") return TopKRank::kSize;
  if (name == "balance") return TopKRank::kBalance;
  return std::nullopt;
}

std::optional<VertexOrdering> ParseVertexOrdering(const std::string& name) {
  if (name == "deg") return VertexOrdering::kDegreeDesc;
  if (name == "id") return VertexOrdering::kId;
  return std::nullopt;
}

std::optional<PruningLevel> ParsePruningLevel(const std::string& name) {
  if (name == "colorful") return PruningLevel::kColorful;
  if (name == "core") return PruningLevel::kCore;
  if (name == "none") return PruningLevel::kNone;
  return std::nullopt;
}

const char* ToString(VertexOrdering ordering) {
  return ordering == VertexOrdering::kId ? "id" : "deg";
}

const char* ToString(TopKRank rank) {
  switch (rank) {
    case TopKRank::kSize:
      return "size";
    case TopKRank::kBalance:
      return "balance";
    case TopKRank::kWeight:
      break;
  }
  return "weight";
}

bool ValidRequestId(const std::string& token) {
  if (token.size() > 128) return false;
  for (char c : token) {
    if (c <= 0x20 || c >= 0x7f || c == '"' || c == '\\') return false;
  }
  return true;
}

const char* ToString(PruningLevel level) {
  switch (level) {
    case PruningLevel::kNone:
      return "none";
    case PruningLevel::kCore:
      return "core";
    case PruningLevel::kColorful:
      break;
  }
  return "colorful";
}

}  // namespace fairbc
