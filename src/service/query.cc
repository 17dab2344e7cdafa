#include "service/query.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>
#include <utility>

#include "common/flags.h"
#include "core/parallel.h"
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

bool ValidRequestId(const std::string& token) {
  if (token.size() > 128) return false;
  for (char c : token) {
    if (c <= 0x20 || c >= 0x7f || c == '"' || c == '\\') return false;
  }
  return true;
}

namespace {

constexpr EnumName<FairModel> kModelNames[] = {
    {"ssfbc", FairModel::kSsfbc}, {"bsfbc", FairModel::kBsfbc}};
constexpr EnumName<FairAlgo> kAlgoNames[] = {{"pp", FairAlgo::kPlusPlus},
                                             {"bcem", FairAlgo::kBcem},
                                             {"naive", FairAlgo::kNaive}};
constexpr EnumName<VertexOrdering> kOrderingNames[] = {
    {"deg", VertexOrdering::kDegreeDesc}, {"id", VertexOrdering::kId}};
constexpr EnumName<PruningLevel> kPruningNames[] = {
    {"colorful", PruningLevel::kColorful},
    {"core", PruningLevel::kCore},
    {"none", PruningLevel::kNone}};
constexpr EnumName<TopKRank> kRankNames[] = {{"weight", TopKRank::kWeight},
                                             {"size", TopKRank::kSize},
                                             {"balance", TopKRank::kBalance}};

/// One numeric request field and the window every door accepts for it.
struct NumericField {
  const char* name;
  bool integer;  ///< text doors parse an int64, else a double.
  double min;
  double max;  ///< inclusive; NaN lies outside every window.
  const char* must;  ///< the message body after the door's spelling.
  double (*get)(const QueryRequest&);
  void (*set)(QueryRequest&, double);
};

/// An integer field's value, once its window has been checked.
std::uint32_t U32(double v) { return static_cast<std::uint32_t>(v); }

static_assert(kMaxThreads == 1024, "the threads message names 1024");

// alpha/beta/delta and top_k stop far above any meaningful threshold and
// far below the uint32 wrap a negative or huge value would hit.
constexpr NumericField kNumericFields[] = {
    {"alpha", true, 0, 1e9, "must be in [0, 1000000000]",
     [](const QueryRequest& r) -> double { return r.params.alpha; },
     [](QueryRequest& r, double v) { r.params.alpha = U32(v); }},
    {"beta", true, 0, 1e9, "must be in [0, 1000000000]",
     [](const QueryRequest& r) -> double { return r.params.beta; },
     [](QueryRequest& r, double v) { r.params.beta = U32(v); }},
    {"delta", true, 0, 1e9, "must be in [0, 1000000000]",
     [](const QueryRequest& r) -> double { return r.params.delta; },
     [](QueryRequest& r, double v) { r.params.delta = U32(v); }},
    {"theta", false, 0, 1, "must be in [0, 1]",
     [](const QueryRequest& r) { return r.params.theta; },
     [](QueryRequest& r, double v) { r.params.theta = v; }},
    {"budget", false, 0, std::numeric_limits<double>::max(),
     "must be a finite number of seconds >= 0",
     [](const QueryRequest& r) { return r.options.time_budget_seconds; },
     [](QueryRequest& r, double v) { r.options.time_budget_seconds = v; }},
    {"threads", true, 0, kMaxThreads, "must be in [0, 1024]",
     [](const QueryRequest& r) -> double { return r.options.num_threads; },
     [](QueryRequest& r, double v) { r.options.num_threads = U32(v); }},
    {"top_k", true, 0, 1e9, "must be in [0, 1e9]",
     [](const QueryRequest& r) -> double { return r.top_k; },
     [](QueryRequest& r, double v) { r.top_k = U32(v); }},
};

Status CheckWindow(const NumericField& field, double value,
                   std::string_view label) {
  if (value >= field.min && value <= field.max) return Status::OK();
  return Status::InvalidArgument(std::string(label) + " " + field.must);
}

/// Reads enum field `field` by its name table; "bad LABEL (a|b|c)".
template <RequestEnum E>
Status ReadName(const QueryText& text, std::string_view field, E* out) {
  const std::optional<std::string> value = text.value(field);
  if (!value) return Status::OK();
  const std::optional<E> parsed = ParseName<E>(*value);
  if (parsed) {
    *out = *parsed;
    return Status::OK();
  }
  std::string choices;
  for (const EnumName<E>& entry : NamesOf(E{})) {
    if (!choices.empty()) choices += '|';
    choices += entry.name;
  }
  return Status::InvalidArgument("bad " + text.label(field) + " (" + choices +
                                 ")");
}

}  // namespace

std::span<const EnumName<FairModel>> NamesOf(FairModel) { return kModelNames; }
std::span<const EnumName<FairAlgo>> NamesOf(FairAlgo) { return kAlgoNames; }
std::span<const EnumName<VertexOrdering>> NamesOf(VertexOrdering) {
  return kOrderingNames;
}
std::span<const EnumName<PruningLevel>> NamesOf(PruningLevel) {
  return kPruningNames;
}
std::span<const EnumName<TopKRank>> NamesOf(TopKRank) { return kRankNames; }

Result<QueryRequest> ReadQueryText(const QueryText& text) {
  QueryRequest request;
  for (const Status& st :
       {ReadName(text, "model", &request.model),
        ReadName(text, "algo", &request.algo),
        ReadName(text, "ordering", &request.options.ordering),
        ReadName(text, "pruning", &request.options.pruning),
        ReadName(text, "rank", &request.rank)}) {
    if (!st.ok()) return st;
  }
  for (const NumericField& field : kNumericFields) {
    const std::optional<std::string> value = text.value(field.name);
    if (!value) continue;
    const std::string label = text.label(field.name);
    std::optional<double> number;
    if (!field.integer) {
      number = ParseNumber<double>(*value);
    } else if (auto integer = ParseNumber<std::int64_t>(*value)) {
      number = static_cast<double>(*integer);
    }
    if (!number) return UnparsableValue(label, *value);
    Status st = CheckWindow(field, *number, label);
    if (!st.ok()) return st;
    field.set(request, *number);
  }
  return request;
}

Status CheckQueryRequest(const QueryRequest& request) {
  for (const NumericField& field : kNumericFields) {
    Status st = CheckWindow(field, field.get(request), field.name);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace fairbc
