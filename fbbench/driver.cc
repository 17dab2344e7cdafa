// fbbench_driver: the compiled half of the fairbc benchmark (run.py is the
// other half). It generates a workload's graphs, runs the one-shot library
// workloads, drives the serve workload's closed-loop client against a
// running fairbc_server, and computes the pinned reference results. Every
// subcommand prints one JSON object on stdout; run.py turns those into
// metrics. The driver only calls public library functions and times them
// from outside: it adds no spans or counters to the library.
//
//   fbbench_driver gen     --workload=W --seed=S --dir=D
//   fbbench_driver oneshot --workload=W --seed=S --dir=D --seconds=T
//                          [--trace=1]
//   fbbench_driver client  --seed=S --dir=D --requests=N --port=P
//                          --records=FILE [--trace=1]
//   fbbench_driver pins    --workload=W --seed=S --dir=D
//
// Inputs depend on --seed in one way only: the seed relabels the vertices
// of each workload's fixed planted-affiliation graph by inserting isolated
// vertices at seeded positions (see Relabel). Every seed therefore does the
// same search work and yields the same result counts, which the benchmark
// checks on every run; digests depend on the ids and are pinned for the
// default seed only. The seed also salts the verification sample.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/flags.h"
#include "common/memory.h"
#include "common/random.h"
#include "core/pipeline.h"
#include "core/result_sink.h"
#include "core/verify.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/snapshot.h"
#include "service/query.h"
#include "service/response_json.h"
#include "service/wire.h"

namespace {

using fairbc::AffiliationConfig;
using fairbc::Biclique;
using fairbc::BipartiteGraph;
using fairbc::EnumStats;
using fairbc::FairAlgo;
using fairbc::FairBicliqueParams;
using fairbc::FairModel;
using fairbc::Side;
using fairbc::Status;
using fairbc::VertexId;
using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// --- workloads ---------------------------------------------------------------

/// One query the benchmark sends, by result-set identity: the graph, the
/// model and engine, the parameters and (for top-k queries) k. Transport
/// knobs (threads, cache, stream) live in the serve trace, not here.
struct Point {
  std::string graph;
  FairModel model = FairModel::kSsfbc;
  FairAlgo algo = FairAlgo::kPlusPlus;
  FairBicliqueParams params;
  std::uint32_t top_k = 0;

  /// Stable name used for pins and records, e.g. "main/bsfbc/pp/4-4-1".
  std::string Key() const {
    std::string key = graph + "/" + fairbc::ToString(model) + "/" +
                      fairbc::ToString(algo) + "/" +
                      std::to_string(params.alpha) + "-" +
                      std::to_string(params.beta) + "-" +
                      std::to_string(params.delta);
    if (top_k > 0) key += "/top" + std::to_string(top_k);
    return key;
  }
};

struct GraphSpec {
  std::string name;
  AffiliationConfig config;
};

struct Workload {
  std::vector<GraphSpec> graphs;
  /// One-shot: the sweep a pass runs, in order. Serve: every point the
  /// trace may draw from.
  std::vector<Point> points;
  /// Worker threads of each one-shot RunEnumeration call.
  unsigned threads = 1;
};

Point MakePoint(std::string graph, FairModel model, FairAlgo algo,
                std::uint32_t alpha, std::uint32_t beta, std::uint32_t delta,
                std::uint32_t top_k = 0) {
  Point p;
  p.graph = std::move(graph);
  p.model = model;
  p.algo = algo;
  p.params.alpha = alpha;
  p.params.beta = beta;
  p.params.delta = delta;
  p.top_k = top_k;
  return p;
}

AffiliationConfig Affiliation(VertexId nu, VertexId nv,
                              std::uint32_t communities,
                              VertexId lower_max, double noise,
                              std::uint64_t structure_seed) {
  AffiliationConfig c;
  c.num_upper = nu;
  c.num_lower = nv;
  c.num_communities = communities;
  c.community_lower_max = lower_max;
  c.noise_fraction = noise;
  c.seed = structure_seed;
  return c;
}

/// Result counts repeated top-k points ask for.
constexpr std::uint32_t kTopK = 10;

/// The three workloads. Graph structure is fixed per workload (its
/// structure seed never changes); sizes were chosen so that one pass of a
/// one-shot workload takes about a second on a 4-core x86 machine.
bool MakeWorkload(const std::string& name, Workload* w) {
  const FairModel ss = FairModel::kSsfbc;
  const FairModel bs = FairModel::kBsfbc;
  const FairAlgo pp = FairAlgo::kPlusPlus;
  if (name == "search") {
    // Noisy planted-affiliation graph; serial runs where the search and
    // its intersection kernels do nearly all the work.
    w->graphs = {{"main", Affiliation(24000, 24000, 360, 16, 2.0, 5)}};
    w->points = {MakePoint("main", ss, pp, 3, 3, 1),
                 MakePoint("main", ss, FairAlgo::kBcem, 3, 3, 1),
                 MakePoint("main", bs, pp, 4, 4, 1)};
    w->threads = 1;
    return true;
  }
  if (name == "emit") {
    // Dense overlapping communities: a few search nodes, many results.
    w->graphs = {{"main", Affiliation(3000, 3000, 90, 32, 0.3, 3)}};
    w->points = {MakePoint("main", ss, pp, 4, 3, 1)};
    w->threads = 4;
    return true;
  }
  if (name == "serve") {
    // A large noisy graph where reduction is most of each execution, and
    // a small graph for cheap uncached multi-threaded queries. Points are
    // listed in popularity order (Zipf rank 1 first).
    w->graphs = {{"main", Affiliation(100000, 100000, 200, 16, 10.0, 5)},
                 {"small", Affiliation(400, 400, 12, 16, 0.3, 5)}};
    const std::uint32_t pairs[][3] = {
        {5, 5, 1}, {4, 5, 1}, {5, 4, 1}, {6, 6, 1}, {4, 4, 2}, {5, 5, 2},
        {6, 5, 1}, {4, 6, 1}, {5, 6, 1}, {6, 4, 1}, {4, 4, 1}, {4, 5, 2},
        {5, 4, 2}, {6, 6, 2}, {4, 6, 2}, {5, 6, 2}, {6, 4, 2}, {6, 5, 2}};
    std::vector<Point> summary;
    for (const auto& abd : pairs) {
      summary.push_back(MakePoint("main", bs, pp, abd[0], abd[1], abd[2]));
    }
    // Single-side points slot in among the bi-side ones.
    summary.insert(summary.begin() + 3, MakePoint("main", ss, pp, 6, 6, 1));
    summary.insert(summary.begin() + 8, MakePoint("main", ss, pp, 6, 5, 1));
    summary.push_back(MakePoint("main", ss, pp, 6, 6, 2));
    summary.push_back(MakePoint("main", ss, pp, 6, 5, 2));
    w->points = summary;
    for (std::size_t i = 0; i < 6; ++i) {
      Point p = summary[i];
      p.top_k = kTopK;
      w->points.push_back(p);
    }
    w->points.push_back(MakePoint("small", ss, pp, 2, 2, 1));
    w->points.push_back(MakePoint("small", ss, pp, 3, 2, 1));
    w->points.push_back(MakePoint("small", bs, pp, 2, 2, 1));
    return true;
  }
  return false;
}

std::string GraphPath(const std::string& dir, const std::string& graph) {
  return dir + "/" + graph + ".fbg";
}

/// Isolated vertices the seed inserts on each side.
constexpr VertexId kPadVertices = 16;

/// New ids for the n vertices of one side after kPadVertices isolated
/// vertices are inserted at seeded positions: ids[v] is vertex v's new id,
/// increasing in v.
std::vector<VertexId> PaddedIds(VertexId n, fairbc::Rng& rng) {
  const VertexId padded = n + kPadVertices;
  std::vector<bool> is_pad(padded, false);
  for (std::uint32_t id : rng.SampleWithoutReplacement(padded, kPadVertices)) {
    is_pad[id] = true;
  }
  std::vector<VertexId> ids;
  ids.reserve(n);
  for (VertexId id = 0; id < padded; ++id) {
    if (!is_pad[id]) ids.push_back(id);
  }
  return ids;
}

/// Relabels `g` by inserting isolated vertices with random attributes at
/// seeded positions. Every other vertex keeps its relative order, and the
/// reductions drop isolated vertices, so the engines search the same
/// compacted graph in the same order under every seed while ids, digests
/// and the input bytes change.
BipartiteGraph Relabel(const BipartiteGraph& g, std::uint64_t seed) {
  fairbc::Rng rng(seed);
  const std::vector<VertexId> upper = PaddedIds(g.NumUpper(), rng);
  const std::vector<VertexId> lower = PaddedIds(g.NumLower(), rng);
  const VertexId num_upper = g.NumUpper() + kPadVertices;
  const VertexId num_lower = g.NumLower() + kPadVertices;
  std::vector<fairbc::AttrId> upper_attrs(num_upper);
  std::vector<fairbc::AttrId> lower_attrs(num_lower);
  for (fairbc::AttrId& a : upper_attrs) {
    a = static_cast<fairbc::AttrId>(rng.NextUInt64(g.NumAttrs(Side::kUpper)));
  }
  for (fairbc::AttrId& a : lower_attrs) {
    a = static_cast<fairbc::AttrId>(rng.NextUInt64(g.NumAttrs(Side::kLower)));
  }
  fairbc::BipartiteGraphBuilder builder(num_upper, num_lower);
  for (VertexId u = 0; u < g.NumUpper(); ++u) {
    upper_attrs[upper[u]] = g.Attr(Side::kUpper, u);
    for (VertexId v : g.Neighbors(Side::kUpper, u)) {
      builder.AddEdge(upper[u], lower[v]);
    }
  }
  for (VertexId v = 0; v < g.NumLower(); ++v) {
    lower_attrs[lower[v]] = g.Attr(Side::kLower, v);
  }
  builder.SetNumAttrs(Side::kUpper, g.NumAttrs(Side::kUpper));
  builder.SetNumAttrs(Side::kLower, g.NumAttrs(Side::kLower));
  builder.SetAttrs(Side::kUpper, std::move(upper_attrs));
  builder.SetAttrs(Side::kLower, std::move(lower_attrs));
  auto built = builder.Build();
  FAIRBC_CHECK(built.ok());
  return std::move(built).value();
}

// --- result checking -----------------------------------------------------------

std::uint64_t Mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Keeps the `capacity` results with the smallest salted hash: a seeded
/// sample that does not depend on emission order or thread count.
class Sampler {
 public:
  Sampler(std::uint64_t salt, std::size_t capacity)
      : salt_(salt), capacity_(capacity) {}

  void Offer(std::uint64_t hash, const Biclique& b) {
    const std::uint64_t key = Mix(hash ^ salt_);
    if (heap_.size() == capacity_) {
      if (key >= heap_.front().first) return;
      std::pop_heap(heap_.begin(), heap_.end(), ByKey);
      heap_.pop_back();
    }
    heap_.emplace_back(key, b);
    std::push_heap(heap_.begin(), heap_.end(), ByKey);
  }

  const std::vector<std::pair<std::uint64_t, Biclique>>& items() const {
    return heap_;
  }

 private:
  static bool ByKey(const std::pair<std::uint64_t, Biclique>& a,
                    const std::pair<std::uint64_t, Biclique>& b) {
    return a.first < b.first;
  }

  const std::uint64_t salt_;
  const std::size_t capacity_;
  std::vector<std::pair<std::uint64_t, Biclique>> heap_;  // max-heap on key
};

constexpr std::size_t kSamplesPerPoint = 32;

struct VerifyTally {
  std::uint64_t checked = 0;
  std::uint64_t failed = 0;
  std::string first_error;

  void Check(const BipartiteGraph& g, const Point& p, const Biclique& b) {
    ++checked;
    Status st = fairbc::VerifyFairBiclique(g, b, p.params, p.model);
    if (st.ok()) return;
    ++failed;
    if (first_error.empty()) first_error = p.Key() + ": " + st.ToString();
  }

  std::string Json() const {
    return "\"verify_checked\":" + std::to_string(checked) +
           ",\"verify_failed\":" + std::to_string(failed) +
           ",\"verify_error\":\"" + fairbc::JsonEscape(first_error) + "\"";
  }
};

// --- gen -----------------------------------------------------------------------

int Gen(const Workload& w, std::uint64_t seed, const std::string& dir) {
  std::ostringstream out;
  out << "{\"graphs\":[";
  double gen_s = 0.0;
  double write_s = 0.0;
  for (std::size_t i = 0; i < w.graphs.size(); ++i) {
    const GraphSpec& spec = w.graphs[i];
    Clock::time_point t0 = Clock::now();
    BipartiteGraph g =
        Relabel(fairbc::MakeAffiliation(spec.config), Mix(seed) ^ i);
    Clock::time_point t1 = Clock::now();
    fairbc::SnapshotWriteOptions options;
    options.version = fairbc::kSnapshotVersionCompressed;
    Status st = fairbc::WriteSnapshot(g, GraphPath(dir, spec.name), options);
    Clock::time_point t2 = Clock::now();
    if (!st.ok()) {
      std::cerr << "error: writing " << spec.name << ": " << st.ToString()
                << "\n";
      return 1;
    }
    gen_s += SecondsBetween(t0, t1);
    write_s += SecondsBetween(t1, t2);
    if (i > 0) out << ",";
    out << "{\"name\":\"" << spec.name << "\",\"upper\":" << g.NumUpper()
        << ",\"lower\":" << g.NumLower() << ",\"edges\":" << g.NumEdges()
        << "}";
  }
  out << "],\"gen_s\":" << fairbc::JsonDouble(gen_s)
      << ",\"write_s\":" << fairbc::JsonDouble(write_s) << "}";
  std::cout << out.str() << "\n";
  return 0;
}

// --- oneshot -------------------------------------------------------------------

/// The caller's sink of a one-shot query: digest, count, time to first
/// result and a verification sample. With `traced`, it also times its own
/// calls (the emit layer's self time).
class MeasuringSink {
 public:
  MeasuringSink(bool traced, std::uint64_t salt)
      : traced_(traced), sampler_(salt, kSamplesPerPoint) {}

  bool Accept(const Biclique& b) {
    const Clock::time_point entered =
        traced_ || count_ == 0 ? Clock::now() : Clock::time_point{};
    if (count_ == 0) first_ = entered;
    ++count_;
    const std::uint64_t h = fairbc::BicliqueHash(b);
    digest_ += h;
    sampler_.Offer(h, b);
    if (traced_) self_ += Clock::now() - entered;
    return true;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t digest() const { return digest_; }
  Clock::time_point first() const { return first_; }
  double self_seconds() const {
    return std::chrono::duration<double>(self_).count();
  }
  const Sampler& sampler() const { return sampler_; }

 private:
  const bool traced_;
  std::uint64_t count_ = 0;
  std::uint64_t digest_ = 0;
  Clock::time_point first_{};
  Clock::duration self_{};
  Sampler sampler_;
};

int Oneshot(const Workload& w, std::uint64_t seed, const std::string& dir,
            double seconds, bool trace) {
  const std::string path = GraphPath(dir, "main");
  auto probe = fairbc::ProbeSnapshot(path);
  if (!probe.ok()) {
    std::cerr << "error: " << probe.status().ToString() << "\n";
    return 1;
  }
  std::ostringstream out;
  out << "{\"file_bytes\":" << probe.value().file_bytes
      << ",\"vertices\":"
      << probe.value().num_upper + std::uint64_t{probe.value().num_lower}
      << ",\"passes\":[";
  // Pass 0 warms caches and the allocator and is not measured. Measured
  // passes run until `seconds` have elapsed (at least two; with --trace
  // they alternate untraced/traced so both sides see the same machine).
  const Clock::time_point start = Clock::now();
  std::vector<Sampler> last_samples;
  for (int pass = 0;
       pass < 3 || SecondsBetween(start, Clock::now()) < seconds; ++pass) {
    const bool traced = trace && pass > 0 && pass % 2 == 0;
    const Clock::time_point t0 = Clock::now();
    auto loaded = fairbc::ReadSnapshot(path);
    const Clock::time_point loaded_at = Clock::now();
    if (!loaded.ok()) {
      std::cerr << "error: " << loaded.status().ToString() << "\n";
      return 1;
    }
    const BipartiteGraph& g = loaded.value();
    std::ostringstream queries;
    std::vector<Sampler> samples;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      const Point& p = w.points[i];
      MeasuringSink sink(traced, Mix(seed) + i);
      fairbc::EnumOptions options;
      options.num_threads = w.threads;
      const Clock::time_point called = Clock::now();
      EnumStats stats = fairbc::RunEnumeration(
          g, p.model, p.algo, p.params, options,
          [&sink](const Biclique& b) { return sink.Accept(b); });
      const Clock::time_point returned = Clock::now();
      if (i > 0) queries << ",";
      queries << "{\"key\":\"" << p.Key() << "\",\"latency_s\":"
              << fairbc::JsonDouble(SecondsBetween(called, returned))
              << ",\"ttfr_s\":"
              << fairbc::JsonDouble(
                     sink.count() == 0 ? SecondsBetween(called, returned)
                                       : SecondsBetween(called, sink.first()))
              << ",\"count\":" << sink.count() << ",\"digest\":\""
              << fairbc::JsonHex64(sink.digest()) << "\",\"sink_s\":"
              << fairbc::JsonDouble(sink.self_seconds())
              << ",\"stats\":" << fairbc::StatsJson(stats) << "}";
      samples.push_back(sink.sampler());
    }
    const Clock::time_point t1 = Clock::now();
    if (pass > 0) out << ",";
    out << "{\"warmup\":" << (pass == 0 ? "true" : "false")
        << ",\"traced\":" << (traced ? "true" : "false")
        << ",\"wall_s\":" << fairbc::JsonDouble(SecondsBetween(t0, t1))
        << ",\"load_s\":" << fairbc::JsonDouble(SecondsBetween(t0, loaded_at))
        << ",\"queries\":[" << queries.str() << "]}";
    last_samples = std::move(samples);
  }
  // Verify the last pass's samples (untimed). The snapshot is read again
  // so that no pass keeps an extra copy of the graph resident.
  auto loaded = fairbc::ReadSnapshot(path);
  if (!loaded.ok()) {
    std::cerr << "error: " << loaded.status().ToString() << "\n";
    return 1;
  }
  VerifyTally tally;
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    for (const auto& item : last_samples[i].items()) {
      tally.Check(loaded.value(), w.points[i], item.second);
    }
  }
  out << "]," << tally.Json() << ",\"peak_rss_bytes\":"
      << fairbc::PeakRssBytes() << "}";
  std::cout << out.str() << "\n";
  return 0;
}

// --- pins ----------------------------------------------------------------------

/// Reference (count, digest) of every point, computed in-process through
/// RunEnumeration (top-k points through a TopKSink over the full run), so
/// server answers are checked against the library, not against the
/// server's own cache.
int Pins(const Workload& w, const std::string& dir) {
  std::vector<std::pair<std::string, BipartiteGraph>> graphs;
  for (const GraphSpec& spec : w.graphs) {
    auto loaded = fairbc::ReadSnapshot(GraphPath(dir, spec.name));
    if (!loaded.ok()) {
      std::cerr << "error: " << loaded.status().ToString() << "\n";
      return 1;
    }
    graphs.emplace_back(spec.name, std::move(loaded).value());
  }
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    const Point& p = w.points[i];
    const BipartiteGraph* g = nullptr;
    for (const auto& [name, graph] : graphs) {
      if (name == p.graph) g = &graph;
    }
    FAIRBC_CHECK(g != nullptr);
    std::uint64_t count = 0;
    std::uint64_t digest = 0;
    if (p.top_k == 0) {
      fairbc::RunEnumeration(*g, p.model, p.algo, p.params, {},
                             [&](const Biclique& b) {
                               ++count;
                               digest += fairbc::BicliqueHash(b);
                               return true;
                             });
    } else {
      fairbc::TopKSink top(p.top_k, fairbc::TopKRank::kWeight);
      fairbc::RunEnumeration(*g, p.model, p.algo, p.params, {},
                             top.AsSink());
      for (const Biclique& b : top.Take()) {
        ++count;
        digest += fairbc::BicliqueHash(b);
      }
    }
    if (i > 0) out << ",";
    out << "\"" << p.Key() << "\":{\"count\":" << count << ",\"digest\":\""
        << fairbc::JsonHex64(digest) << "\"}";
  }
  out << "}";
  std::cout << out.str() << "\n";
  return 0;
}

// --- client --------------------------------------------------------------------

namespace wire = fairbc::wire;

/// One request of the serve trace.
struct TraceEntry {
  std::size_t point = 0;  ///< index into Workload::points.
  const char* kind = "summary";
  bool stream = false;
  bool use_cache = true;
  unsigned threads = 1;
};

/// Skew of summary-query popularity.
constexpr double kZipfExponent = 1.2;

/// The trace's own seed. It is fixed, not taken from --seed: which
/// queries miss the cache decides most of a serve run's cost, and a trace
/// redrawn per seed made that cost vary by a fifth from seed to seed.
constexpr std::uint64_t kTraceSeed = 0x7ace;

/// Draws the request mix over the serve points (see README.md):
/// Zipf-popular summary queries, bursts of concurrent duplicates, streams,
/// top-k queries, and a minority of uncached two-thread queries on the
/// small graph. The proportions are a chosen mix, not a measured one.
std::vector<TraceEntry> MakeTrace(const Workload& w, std::size_t length) {
  std::vector<std::size_t> summary, topk, small;
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    const Point& p = w.points[i];
    if (p.graph == "small") {
      small.push_back(i);
    } else if (p.top_k > 0) {
      topk.push_back(i);
    } else {
      summary.push_back(i);
    }
  }
  const std::size_t largest = static_cast<std::size_t>(
      std::find_if(w.points.begin(), w.points.end(),
                   [](const Point& p) {
                     return p.Key() == "main/bsfbc/pp/4-4-1";
                   }) -
      w.points.begin());
  // Zipf over the summary points in their listed order.
  std::vector<double> cdf;
  double total = 0.0;
  for (std::size_t r = 0; r < summary.size(); ++r) {
    total += std::pow(static_cast<double>(r + 1), -kZipfExponent);
    cdf.push_back(total);
  }
  fairbc::Rng rng(kTraceSeed);
  auto zipf = [&]() {
    const double u = rng.NextDouble() * total;
    return summary[static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin())];
  };
  std::vector<TraceEntry> trace;
  std::size_t streams = 0;
  while (trace.size() < length) {
    const double u = rng.NextDouble();
    TraceEntry e;
    if (u < 0.16) {
      e.point = zipf();
      trace.push_back(e);
    } else if (u < 0.20) {
      // Three identical requests back to back: idle connections pick them
      // up together, so a miss is executed once and coalesced twice.
      e.point = zipf();
      e.kind = "duplicate";
      for (int k = 0; k < 3; ++k) trace.push_back(e);
    } else if (u < 0.78) {
      // Streams are about half of all requests, so the median request is
      // a stream: seven in eight replay the hottest query's cached payload
      // (26k bicliques) through the cache and the wire; every eighth
      // bypasses the cache on the largest query (82k) and executes. Cache
      // hits, small-graph queries and stream replays sit orders of
      // magnitude apart in latency, so the median lands inside the replays
      // and the 90th percentile time to first result inside the
      // executions, whatever the timing of the run. (The payload budget
      // holds one large payload, so cached streams of several large
      // queries would evict each other and execute by chance.)
      e.stream = true;
      if (++streams % 8 == 0) {
        e.point = largest;
        e.kind = "stream_uncached";
        e.use_cache = false;
      } else {
        e.point = summary[0];
        e.kind = "stream";
      }
      trace.push_back(e);
    } else if (u < 0.88) {
      e.point = topk[rng.NextUInt64(topk.size())];
      e.kind = "topk";
      trace.push_back(e);
    } else {
      // About one request in ten bypasses the cache on the small graph.
      e.point = small[rng.NextUInt64(small.size())];
      e.kind = "small";
      e.use_cache = false;
      e.threads = 2;
      trace.push_back(e);
    }
  }
  trace.resize(length);
  return trace;
}

fairbc::QueryRequest ToRequest(const Point& p, const TraceEntry& e) {
  fairbc::QueryRequest req;
  req.graph = p.graph;
  req.model = p.model;
  req.algo = p.algo;
  req.params = p.params;
  req.top_k = p.top_k;
  req.use_cache = e.use_cache;
  req.options.num_threads = e.threads;
  return req;
}

/// A blocking loopback connection speaking the binary protocol.
class Connection {
 public:
  explicit Connection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    int nodelay = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool ok() const { return fd_ >= 0; }

  bool Send(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads one frame. Stamps `*first_byte` when the first bytes after the
  /// last send arrive (left alone once set) and adds the frame's size to
  /// `*bytes`.
  bool ReadFrame(wire::Frame* frame, Clock::time_point* first_byte,
                 std::uint64_t* bytes) {
    for (;;) {
      std::size_t consumed = 0;
      const auto decoded =
          wire::DecodeFrame(buf_, /*max_payload=*/256u << 20, frame, &consumed);
      if (decoded.status == wire::FrameStatus::kOk) {
        buf_.erase(0, consumed);
        *bytes += consumed;
        return true;
      }
      if (decoded.status == wire::FrameStatus::kBad) return false;
      char chunk[65536];
      const ssize_t n = Recv(chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      if (*first_byte == Clock::time_point{}) *first_byte = Clock::now();
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  /// Polls the socket for up to kSpin before blocking. A blocked client
  /// thread's wake-up on a virtual machine costs tens of microseconds and
  /// varies with the host's load, which would swamp the round trip of a
  /// cache hit; polling keeps that cost out of the server's latency.
  ssize_t Recv(char* data, std::size_t size) {
    constexpr auto kSpin = std::chrono::microseconds(300);
    const Clock::time_point until = Clock::now() + kSpin;
    for (;;) {
      const ssize_t n = ::recv(fd_, data, size, MSG_DONTWAIT);
      if (n >= 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) return n;
      if (Clock::now() >= until) return ::recv(fd_, data, size, 0);
    }
  }

  int fd_ = -1;
  std::string buf_;
};

/// Client-side record of one request.
struct Record {
  Clock::time_point send{}, first_byte{}, first_chunk{}, last_byte{};
  std::uint64_t bytes = 0;
  std::uint64_t chunks = 0;
  std::uint64_t results = 0;  ///< bicliques reassembled from chunks.
  std::uint64_t digest = 0;   ///< their order-independent digest.
  double decode_s = 0.0;      ///< client time decoding chunks (traced).
  bool seq_ok = true;         ///< chunks arrived as 1, 2, 3, ...
  std::string error;          ///< transport or typed server error.
  std::string reply;          ///< final JSON payload (kReply / kReplyEnd).
};

/// Sends one request and reads its complete response.
void RunRequest(Connection& conn, std::uint64_t id, const Point& point,
                const TraceEntry& entry, bool trace, Sampler* sampler,
                std::mutex* sampler_mu, Record* rec) {
  wire::Frame request;
  request.opcode = wire::Opcode::kQuery;
  request.request_id = id;
  request.payload = wire::EncodeQueryPayload(ToRequest(point, entry),
                                             entry.stream);
  std::string encoded;
  wire::EncodeFrame(request, &encoded);
  rec->send = Clock::now();
  if (!conn.Send(encoded)) {
    rec->error = "send failed";
    return;
  }
  for (;;) {
    wire::Frame frame;
    if (!conn.ReadFrame(&frame, &rec->first_byte, &rec->bytes)) {
      rec->error = "connection lost";
      return;
    }
    if (frame.request_id != id) {
      rec->error = "reply for request " + std::to_string(frame.request_id);
      return;
    }
    if (frame.opcode == wire::Opcode::kReplyChunk) {
      const Clock::time_point arrived = Clock::now();
      if (rec->chunks == 0) rec->first_chunk = arrived;
      auto chunk = wire::DecodeChunkPayload(frame.payload);
      if (!chunk.ok()) {
        rec->error = "bad chunk: " + chunk.status().ToString();
        return;
      }
      ++rec->chunks;
      if (chunk.value().seq != rec->chunks) rec->seq_ok = false;
      for (const Biclique& b : chunk.value().bicliques) {
        const std::uint64_t h = fairbc::BicliqueHash(b);
        ++rec->results;
        rec->digest += h;
        if ((Mix(h) & 63) == 0) {
          std::lock_guard<std::mutex> lock(*sampler_mu);
          sampler->Offer(h, b);
        }
      }
      if (trace) rec->decode_s += SecondsBetween(arrived, Clock::now());
      continue;
    }
    rec->last_byte = Clock::now();
    if (frame.opcode == wire::Opcode::kReply ||
        frame.opcode == wire::Opcode::kReplyEnd) {
      rec->reply = std::move(frame.payload);
      return;
    }
    if (frame.opcode == wire::Opcode::kError) {
      wire::ErrorCode code{};
      std::string message;
      if (wire::DecodeErrorPayload(frame.payload, &code, &message).ok()) {
        rec->error = std::string(wire::ToString(code)) + ": " + message;
      } else {
        rec->error = "unparsable error frame";
      }
      return;
    }
    rec->error = "unexpected opcode";
    return;
  }
}

constexpr int kConnections = 2;

/// Runs the first `length` requests of the trace once over the closed loop.
int Client(const Workload& w, std::uint64_t seed, const std::string& dir,
           std::size_t length, int port, const std::string& records_path,
           bool trace) {
  const std::vector<TraceEntry> trace_entries = MakeTrace(w, length);
  std::vector<Record> records(length);
  // One sampler per point, shared by the connections that stream it.
  std::vector<Sampler> samplers;
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    samplers.emplace_back(Mix(seed) + i, kSamplesPerPoint);
  }
  std::vector<std::mutex> sampler_mu(w.points.size());

  std::vector<std::unique_ptr<Connection>> conns;
  for (int i = 0; i < kConnections; ++i) {
    conns.push_back(std::make_unique<Connection>(port));
    if (!conns.back()->ok()) {
      std::cerr << "error: cannot connect to 127.0.0.1:" << port << "\n";
      return 1;
    }
  }
  // Closed loop: each connection takes the next trace entry, sends it and
  // waits for the whole reply before taking another.
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= length) return;
        const TraceEntry& e = trace_entries[i];
        RunRequest(*conns[c], i + 1, w.points[e.point], e, trace,
                   &samplers[e.point], &sampler_mu[e.point], &records[i]);
        if (!records[i].error.empty() && records[i].reply.empty() &&
            records[i].last_byte == Clock::time_point{}) {
          // The connection is unusable after a transport failure; stop
          // this connection and let the others finish the trace.
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  conns.clear();

  auto since = [&](Clock::time_point t) {
    return t == Clock::time_point{} ? -1.0 : SecondsBetween(t0, t);
  };
  std::ofstream out(records_path);
  for (std::size_t i = 0; i < length; ++i) {
    const Record& r = records[i];
    const TraceEntry& e = trace_entries[i];
    out << "{\"i\":" << i << ",\"key\":\"" << w.points[e.point].Key()
        << "\",\"kind\":\"" << e.kind << "\",\"stream\":"
        << (e.stream ? "true" : "false")
        << ",\"send\":" << fairbc::JsonDouble(since(r.send))
        << ",\"first_byte\":" << fairbc::JsonDouble(since(r.first_byte))
        << ",\"first_chunk\":" << fairbc::JsonDouble(since(r.first_chunk))
        << ",\"last_byte\":" << fairbc::JsonDouble(since(r.last_byte))
        << ",\"bytes\":" << r.bytes << ",\"chunks\":" << r.chunks
        << ",\"results\":" << r.results << ",\"digest\":\""
        << fairbc::JsonHex64(r.digest) << "\",\"seq_ok\":"
        << (r.seq_ok ? "true" : "false")
        << ",\"decode_s\":" << fairbc::JsonDouble(r.decode_s)
        << ",\"error\":\"" << fairbc::JsonEscape(r.error) << "\",\"reply\":"
        << (r.reply.empty() ? "null" : r.reply) << "}\n";
  }
  out.close();
  if (!out) {
    std::cerr << "error: writing " << records_path << "\n";
    return 1;
  }

  // Verify the sampled streamed bicliques against the graphs (untimed).
  VerifyTally tally;
  for (const GraphSpec& spec : w.graphs) {
    auto loaded = fairbc::ReadSnapshot(GraphPath(dir, spec.name));
    if (!loaded.ok()) {
      std::cerr << "error: " << loaded.status().ToString() << "\n";
      return 1;
    }
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      if (w.points[i].graph != spec.name) continue;
      for (const auto& item : samplers[i].items()) {
        tally.Check(loaded.value(), w.points[i], item.second);
      }
    }
  }
  std::cout << "{" << tally.Json() << ",\"connections\":" << kConnections
            << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  fairbc::FlagParser flags;
  Status st = flags.Parse(argc, argv);
  if (!st.ok() || flags.positional().size() != 1) {
    std::cerr << "usage: fbbench_driver gen|oneshot|client|pins --workload=W "
                 "--seed=S --dir=D [--seconds=T] [--trace=0|1] [--port=P] "
                 "[--requests=N] [--records=FILE]\n";
    return 2;
  }
  const std::string command = flags.positional()[0];
  const std::string workload_name =
      flags.GetString("workload", command == "client" ? "serve" : "");
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  const std::string dir = flags.GetString("dir", ".");
  const double seconds = flags.GetDouble("seconds", 0.0);
  const bool trace = flags.GetInt("trace", 0) != 0;
  const auto port = flags.GetInt("port", 0);
  const auto requests = flags.GetInt("requests", 0);
  const std::string records = flags.GetString("records", "");
  for (const std::string& name : flags.UnusedFlags()) {
    std::cerr << "error: unknown flag --" << name << "\n";
    return 2;
  }
  Workload w;
  if (!MakeWorkload(workload_name, &w)) {
    std::cerr << "error: unknown workload '" << workload_name << "'\n";
    return 2;
  }
  if (command == "gen") return Gen(w, seed, dir);
  if (command == "pins") return Pins(w, dir);
  if (command == "oneshot") {
    if (seconds <= 0.0) {
      std::cerr << "error: oneshot needs --seconds\n";
      return 2;
    }
    return Oneshot(w, seed, dir, seconds, trace);
  }
  if (command == "client") {
    if (port <= 0 || port > 65535 || records.empty() || requests <= 0) {
      std::cerr << "error: client needs --port, --records and --requests\n";
      return 2;
    }
    return Client(w, seed, dir, static_cast<std::size_t>(requests),
                  static_cast<int>(port), records, trace);
  }
  std::cerr << "error: unknown command '" << command << "'\n";
  return 2;
}
