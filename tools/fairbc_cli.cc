// fairbc command-line tool.
//
// Usage:
//   fairbc_cli stats   --graph=FILE [--format=edges|attr|snapshot|mmap]
//   fairbc_cli enum    --graph=FILE [--format=edges|attr|snapshot|mmap]
//                      --model=ssfbc|bsfbc
//                      [--algo=pp|bcem|naive] [--alpha=A] [--beta=B]
//                      [--delta=D] [--theta=T] [--ordering=deg|id]
//                      [--pruning=colorful|core|none] [--budget=SECONDS]
//                      [--threads=N] [--out=FILE] [--count-only]
//                      [--output=text|json] [--rand-attrs=N --seed=S]
//                      [--trace-out=FILE] [--top-k=K]
//                      [--rank=weight|size|balance] [--stream] [--chunk=N]
//   fairbc_cli gen     --out=FILE --kind=uniform|powerlaw|affiliation
//                      [--nu=N --nv=N --edges=M --attrs=K --seed=S]
//   fairbc_cli snapshot save --graph=FILE [--format=edges|attr] --out=SNAP
//                            [--compress] [--block-edges=N]
//   fairbc_cli snapshot load --graph=SNAP
//   fairbc_cli snapshot info --graph=SNAP   (header probe: version, ratio)
//   fairbc_cli verify  --graph=FILE --results=FILE --model=ssfbc|bsfbc
//                      [--alpha=A --beta=B --delta=D --theta=T]
//
// `--format=edges` reads a plain `u v` edge list (attributes default to
// class 0; combine with --rand-attrs=N, N in `gen`'s attrs window
// [1, 1024], to mirror the paper's random attribute assignment).
// `--format=attr` reads the %fairbc format;
// `--format=snapshot` reads the binary snapshot format (graph/snapshot.h,
// written by `snapshot save` — bulk load, no text parsing);
// `--format=mmap` maps the same snapshot in place (read-only view, no
// copy — ReadSnapshotView).
//
// `enum` turns its flags into a QueryRequest and runs it through
// RunQuery (service/query.h), the result path the server's queries take;
// an unknown name or out-of-range value is a usage error (exit 2).
//
// `--output=json` replaces enum's human-readable lines with one JSON
// object (count, result-set digest, per-phase stats) emitted through the
// same serializer as the fairbc_server responses.
//
// `--top-k=K` keeps only the K best bicliques under `--rank` (edge count,
// |L|+|R|, or min(|L|,|R|)) and lets the engines branch-and-bound prune
// against the current K-th best — the CLI mirror of the server's top-k
// queries. `--stream` emits results as they are found instead of
// collecting first: with --output=json, the server's {"cmd":"chunk",...}
// lines (--chunk=N results per line) followed by the usual summary
// object; with text output, bicliques print incrementally.
//
// `--trace-out=FILE` records the run's phase spans (reduce →
// construct/color/peel, enumerate → root/split) and writes them as
// Chrome trace-event JSON — load FILE in Perfetto / chrome://tracing.
// See docs/OBSERVABILITY.md.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/timer.h"
#include "core/chunk_body.h"
#include "core/verify.h"
#include "obs/trace.h"
#include "graph/biclique_io.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/snapshot.h"
#include "graph/stats.h"
#include "service/query.h"
#include "service/response_json.h"

namespace {

using fairbc::BipartiteGraph;
using fairbc::FlagParser;
using fairbc::Side;
using fairbc::Status;

int Fail(const Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return 1;
}

/// Usage errors (bad flag values) exit 2, like Usage().
int UsageError(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  return 2;
}

int Usage() {
  std::cerr << "usage: fairbc_cli <stats|enum|gen|snapshot|verify> [flags]\n"
               "run with a command to see its flags (top of tools/"
               "fairbc_cli.cc)\n";
  return 2;
}

/// Loads --graph in --format (a GraphCatalog format name, "attr" by
/// default) and applies --rand-attrs. Returns the exit code: 0 with the
/// graph in `*out`, 2 on an unknown --format or a --rand-attrs outside
/// `gen`'s attrs window (0 keeps the file's attributes), 1 when the load
/// fails.
int LoadGraph(const FlagParser& flags, BipartiteGraph* out) {
  std::string path = flags.GetString("graph", "");
  if (path.empty()) {
    return Fail(Status::InvalidArgument("--graph is required"));
  }
  auto format = fairbc::ParseCatalogFormat(flags.GetString("format", "attr"));
  if (!format) return UsageError("bad --format (edges|attr|snapshot|mmap)");
  const std::int64_t rand_attrs = flags.GetInt("rand-attrs", 0);
  if (rand_attrs < 0 || rand_attrs > fairbc::kMaxAttrClasses) {
    return UsageError("--rand-attrs must be 0 (keep) or in [1, 1024]");
  }
  fairbc::Result<BipartiteGraph> loaded = fairbc::ReadGraphFile(path, *format);
  if (!loaded.ok()) return Fail(loaded.status());
  BipartiteGraph g = std::move(loaded).value();

  if (rand_attrs != 0) {
    // Re-attribute both sides uniformly, the paper's preprocessing for
    // non-attributed inputs (1 puts every vertex in class 0).
    fairbc::Rng rng(static_cast<std::uint64_t>(flags.GetInt("seed", 42)));
    fairbc::BipartiteGraphBuilder builder(g.NumUpper(), g.NumLower());
    for (fairbc::VertexId u = 0; u < g.NumUpper(); ++u) {
      for (fairbc::VertexId v : g.Neighbors(Side::kUpper, u)) {
        builder.AddEdge(u, v);
      }
    }
    builder.AssignRandomAttrs(Side::kUpper, static_cast<fairbc::AttrId>(rand_attrs),
                              rng);
    builder.AssignRandomAttrs(Side::kLower, static_cast<fairbc::AttrId>(rand_attrs),
                              rng);
    auto built = builder.Build();
    if (!built.ok()) return Fail(built.status());
    g = std::move(built).value();
  }
  *out = std::move(g);
  return 0;
}

/// The request fields of service/query.h from their flags (`top_k` is
/// --top-k); with `fairness_only` (verify), model/alpha/beta/delta/theta.
fairbc::Result<fairbc::QueryRequest> ReadRequestFlags(const FlagParser& flags,
                                                      bool fairness_only) {
  auto flag = [](std::string_view field) {
    std::string name(field);
    std::replace(name.begin(), name.end(), '_', '-');
    return name;
  };
  return fairbc::ReadQueryText(
      {[&](std::string_view field) -> std::optional<std::string> {
         const bool wanted =
             !fairness_only || field == "model" || field == "alpha" ||
             field == "beta" || field == "delta" || field == "theta";
         if (!wanted || !flags.Has(flag(field))) return std::nullopt;
         return flags.GetString(flag(field), "");
       },
       [&](std::string_view field) { return "--" + flag(field); }});
}

/// Prints the bicliques of `bodies` one per line (Biclique::DebugString).
/// The run's own encoder wrote them, so they always decode.
void PrintBicliques(const std::vector<fairbc::ChunkBody>& bodies) {
  std::vector<fairbc::Biclique> bicliques;
  FAIRBC_CHECK(fairbc::DecodeChunkBodies(bodies, &bicliques).ok());
  for (const fairbc::Biclique& b : bicliques) {
    std::cout << b.DebugString() << "\n";
  }
}

int RunStats(const FlagParser& flags) {
  BipartiteGraph g;
  if (int rc = LoadGraph(flags, &g); rc != 0) return rc;
  if (flags.ReportBadFlags(std::cerr)) return 2;
  std::cout << fairbc::StatsReport(g);
  return 0;
}

int RunEnum(const FlagParser& flags) {
  BipartiteGraph g;
  if (int rc = LoadGraph(flags, &g); rc != 0) return rc;

  auto read = ReadRequestFlags(flags, /*fairness_only=*/false);
  if (!read.ok()) return UsageError(read.status().message());
  fairbc::QueryRequest request = std::move(read).value();
  request.graph = flags.GetString("graph", "");
  const bool stream = flags.GetBool("stream", false);
  const std::int64_t chunk_results = flags.GetInt("chunk", 64);
  if (chunk_results < 1 || chunk_results > 1'000'000) {
    return UsageError("--chunk must be in [1, 1e6]");
  }
  const std::string output = flags.GetString("output", "text");
  if (output != "text" && output != "json") {
    return UsageError("bad --output (text|json)");
  }
  if (flags.ReportBadFlags(std::cerr)) return 2;

  const bool json = output == "json";
  const std::string out = flags.GetString("out", "");
  const bool count_only = flags.GetBool("count-only", false);
  if (stream && (!out.empty() || count_only)) {
    return Fail(Status::InvalidArgument(
        "--stream is incompatible with --out/--count-only"));
  }
  // Text output prints the bicliques and --out writes them, so those runs
  // collect them; JSON and --count-only report the summary alone.
  request.include_bicliques =
      !stream && !count_only && (!out.empty() || !json);

  const std::string trace_out = flags.GetString("trace-out", "");
  std::unique_ptr<fairbc::TraceRecorder> recorder;
  if (!trace_out.empty()) {
    recorder = std::make_unique<fairbc::TraceRecorder>();
    recorder->set_label(request.graph + " " +
                        fairbc::ToString(request.model) + "/" +
                        fairbc::ToString(request.algo));
  }
  fairbc::ChunkCallback print_chunk;
  if (stream) {
    // With JSON, the server's {"cmd":"chunk",...} lines; the summary
    // object below closes the stream instead of the final marker.
    print_chunk = [&](const fairbc::StreamChunk& chunk) {
      if (chunk.final) return;
      if (json) {
        std::cout << fairbc::StreamChunkJson(request, chunk) << "\n";
      } else {
        PrintBicliques({chunk.body});
      }
      std::cout << std::flush;  // progressive delivery is the point.
    };
  }
  fairbc::Timer wall;
  fairbc::QueryRun run;
  {
    // The root "query" span makes CLI traces the same shape as the
    // server's retained slow-query traces (one validator fits both).
    fairbc::TraceSpan root(recorder.get(), "query");
    run = fairbc::RunQuery(request, g,
                           static_cast<std::size_t>(chunk_results),
                           recorder.get(), print_chunk);
  }
  const fairbc::EnumStats& stats = run.summary.stats;

  std::string wrote;
  if (count_only) {
    if (!json) std::cout << "count: " << run.summary.count << "\n";
  } else if (!out.empty()) {
    std::vector<fairbc::Biclique> bicliques;
    FAIRBC_CHECK(fairbc::DecodeChunkBodies(run.bodies, &bicliques).ok());
    Status st = fairbc::WriteBicliques(bicliques, out);
    if (!st.ok()) return Fail(st);
    wrote = out;
    if (!json) {
      std::cout << "wrote " << bicliques.size() << " bicliques to " << out
                << "\n";
    }
  } else if (request.include_bicliques) {
    PrintBicliques(run.bodies);
  }
  if (recorder != nullptr) {
    recorder->set_wall_seconds(wall.ElapsedSeconds());
    std::ofstream trace_file(trace_out, std::ios::trunc);
    if (!trace_file) {
      return Fail(Status::Internal("cannot write --trace-out file: " +
                                   trace_out));
    }
    trace_file << fairbc::TraceEventsJson(*recorder) << "\n";
    if (!json) {
      std::cout << "wrote trace (" << recorder->Snapshot().size()
                << " spans) to " << trace_out << "\n";
    }
  }
  if (json) {
    // The params/summary fragment is the exact emitter the fairbc_server
    // `query` response uses, so CLI runs and server responses stay
    // textually comparable (the CI smoke relies on this).
    std::cout << "{\"ok\":true,\"cmd\":\"enum\","
              << fairbc::QueryParamsSummaryJson(request.model, request.algo,
                                                request.params, run.summary);
    if (!wrote.empty()) {
      std::cout << ",\"wrote\":\"" << fairbc::JsonEscape(wrote) << "\"";
    }
    std::cout << ",\"stats\":" << fairbc::StatsJson(stats) << "}\n";
  } else {
    std::cout << "stats: " << stats.DebugString() << "\n";
  }
  return stats.budget_exhausted ? 3 : 0;
}

int RunSnapshot(const FlagParser& flags) {
  const auto& positional = flags.positional();
  std::string sub = positional.empty() ? "" : positional.front();
  if (sub == "save") {
    // --graph/--format name the (typically text) input; --out the
    // snapshot. --compress writes the v3 block-compressed format
    // (--block-edges sets its block granularity).
    std::string out = flags.GetString("out", "");
    if (out.empty()) return Fail(Status::InvalidArgument("--out is required"));
    BipartiteGraph g;
    if (int rc = LoadGraph(flags, &g); rc != 0) return rc;
    fairbc::SnapshotWriteOptions options;
    if (flags.GetBool("compress", false)) {
      options.version = fairbc::kSnapshotVersionCompressed;
    }
    const auto block_edges =
        flags.GetInt("block-edges", fairbc::kDefaultSnapshotBlockEdges);
    if (!fairbc::ValidSnapshotBlockEdges(block_edges)) {
      return UsageError("--block-edges must be in [1, " +
                        std::to_string(fairbc::kMaxSnapshotBlockEdges) + "]");
    }
    options.block_edges = static_cast<std::uint32_t>(block_edges);
    if (flags.ReportBadFlags(std::cerr)) return 2;
    Status st = fairbc::WriteSnapshot(g, out, options);
    if (!st.ok()) return Fail(st);
    std::cout << "wrote snapshot " << out << " v" << options.version
              << " version "
              << fairbc::JsonHex64(fairbc::GraphFingerprint(g))
              << " (" << g.DebugString() << ")\n";
    return 0;
  }
  if (sub == "load") {
    std::string path = flags.GetString("graph", "");
    if (path.empty()) {
      return Fail(Status::InvalidArgument("--graph is required"));
    }
    auto loaded = fairbc::ReadSnapshot(path);
    if (!loaded.ok()) return Fail(loaded.status());
    std::cout << "loaded snapshot " << path << " version "
              << fairbc::JsonHex64(fairbc::GraphFingerprint(loaded.value()))
              << " (" << loaded.value().DebugString() << ")\n";
    return 0;
  }
  if (sub == "info") {
    // Header-only probe: format version, counts, fingerprint and the
    // compression ratio against the raw v2 encoding.
    std::string path = flags.GetString("graph", "");
    if (path.empty()) {
      return Fail(Status::InvalidArgument("--graph is required"));
    }
    auto info = fairbc::ProbeSnapshot(path);
    if (!info.ok()) return Fail(info.status());
    const fairbc::SnapshotInfo& i = info.value();
    std::cout << "{\"path\":\"" << fairbc::JsonEscape(path)
              << "\",\"snapshot_version\":" << i.version << ",\"version\":\""
              << fairbc::JsonHex64(i.checksum)
              << "\",\"upper\":" << i.num_upper << ",\"lower\":" << i.num_lower
              << ",\"edges\":" << i.num_edges
              << ",\"file_bytes\":" << i.file_bytes
              << ",\"uncompressed_bytes\":" << i.uncompressed_bytes
              << ",\"ratio\":"
              << fairbc::JsonDouble(
                     i.file_bytes == 0
                         ? 0.0
                         : static_cast<double>(i.uncompressed_bytes) /
                               static_cast<double>(i.file_bytes))
              << ",\"block_edges\":" << i.block_edges
              << ",\"num_blocks\":" << i.num_blocks << "}\n";
    return 0;
  }
  std::cerr << "usage: fairbc_cli snapshot <save|load|info> [flags]\n";
  return 2;
}

int RunGen(const FlagParser& flags) {
  std::string out = flags.GetString("out", "");
  if (out.empty()) return Fail(Status::InvalidArgument("--out is required"));
  fairbc::GraphSpec spec;
  spec.kind = flags.GetString("kind", spec.kind);
  spec.num_upper = flags.GetInt("nu", spec.num_upper);
  spec.num_lower = flags.GetInt("nv", spec.num_lower);
  spec.num_edges = flags.GetInt("edges", spec.num_edges);
  spec.num_attrs = flags.GetInt("attrs", spec.num_attrs);
  spec.num_communities = flags.GetInt("communities", spec.num_communities);
  spec.gamma = flags.GetDouble("gamma", spec.gamma);
  spec.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  if (flags.ReportBadFlags(std::cerr)) return 2;

  auto generated = fairbc::GenerateGraph(spec);
  if (!generated.ok()) return UsageError(generated.status().message());
  const BipartiteGraph& g = generated.value();
  Status st = fairbc::WriteAttributedGraph(g, out);
  if (!st.ok()) return Fail(st);
  std::cout << "wrote " << g.DebugString() << " to " << out << "\n";
  return 0;
}

int RunVerify(const FlagParser& flags) {
  BipartiteGraph g;
  if (int rc = LoadGraph(flags, &g); rc != 0) return rc;
  std::string results_path = flags.GetString("results", "");
  if (results_path.empty()) {
    return Fail(Status::InvalidArgument("--results is required"));
  }
  auto results = fairbc::ReadBicliques(results_path);
  if (!results.ok()) return Fail(results.status());

  auto request = ReadRequestFlags(flags, /*fairness_only=*/true);
  if (!request.ok()) return UsageError(request.status().message());
  if (flags.ReportBadFlags(std::cerr)) return 2;
  Status st = fairbc::VerifyResultSet(g, results.value(),
                                      request.value().params,
                                      request.value().model);
  if (!st.ok()) return Fail(st);
  std::cout << "OK: " << results.value().size()
            << " results verified (biclique, fairness, maximality, no "
               "duplicates)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  FlagParser flags;
  Status st = flags.Parse(argc - 1, argv + 1);
  if (!st.ok()) return UsageError(st.ToString());

  int rc;
  if (command == "stats") {
    rc = RunStats(flags);
  } else if (command == "enum") {
    rc = RunEnum(flags);
  } else if (command == "gen") {
    rc = RunGen(flags);
  } else if (command == "snapshot") {
    rc = RunSnapshot(flags);
  } else if (command == "verify") {
    rc = RunVerify(flags);
  } else {
    return Usage();
  }
  // A command that stopped early never read its later flags, so only a
  // successful run can tell an unknown flag from an unread one.
  if (rc == 0) {
    for (const std::string& name : flags.UnusedFlags()) {
      std::cerr << "warning: unknown flag --" << name << " ignored\n";
    }
  }
  return rc;
}
