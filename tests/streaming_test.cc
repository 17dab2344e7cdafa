// Streaming result-pipeline tests: TopKKeeper order-independent
// determinism, ChunkSink flush boundaries, streamed-vs-batch
// byte-equivalence (count + order-independent digest) across all four
// engine paths at thread widths {1, 2, 8}, top-k agreement with the full
// enumeration for every engine of both models under every rank with
// branch-and-bound pruning live (and proof that the pruning cuts), the
// query runner's top-k (RunQuery) against brute-force maxima at one and
// eight lanes, the streaming single-flight (late subscriber attaches to
// the leader's chunk stream, replaying its backlog when it arrives
// mid-stream),
// payload-cache chunk replay, the chunk wire codec, and
// the server line protocol's chunked framing + strict trace/cache/
// catalog-command argument validation. Runs in the TSan job (.github/workflows/ci.yml)
// so the chunk fan-out and prune-bound publication are raced for real.

#include "core/result_sink.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <cstdint>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/bruteforce.h"
#include "core/enumerate.h"
#include "core/pipeline.h"
#include "core/search_context.h"
#include "graph/generators.h"
#include "service/graph_catalog.h"
#include "service/query.h"
#include "service/query_executor.h"
#include "service/server.h"
#include "service/wire.h"
#include "session_test_util.h"
#include "test_util.h"

namespace fairbc {
namespace {

using ::fairbc::testing::RandomSmallGraph;

BipartiteGraph StreamTestGraph() {
  AffiliationConfig config;
  config.num_upper = 400;
  config.num_lower = 400;
  config.num_communities = 20;
  config.seed = 23;
  return MakeAffiliation(config);
}

// Small enough that even the naive engine (enumerate-then-filter)
// finishes instantly; the equivalence sweep runs all four paths on it.
BipartiteGraph SmallTestGraph() { return MakeUniformRandom(60, 60, 240, 2, 9); }

QueryRequest BaseRequest(const std::string& graph, FairModel model,
                         FairAlgo algo, unsigned threads) {
  QueryRequest req;
  req.graph = graph;
  req.model = model;
  req.algo = algo;
  req.params.alpha = 2;
  req.params.beta = 2;
  req.params.delta = 1;
  req.options.num_threads = threads;
  req.use_cache = false;
  return req;
}

Biclique MakeBiclique(std::vector<VertexId> upper, std::vector<VertexId> lower) {
  Biclique b;
  b.upper = std::move(upper);
  b.lower = std::move(lower);
  return b;
}

// A chunk body's results, through the decoder (a null body — the final
// marker's — holds none).
std::vector<Biclique> DecodeBody(const ChunkBody& body) {
  std::vector<Biclique> out;
  if (body.bytes != nullptr) {
    EXPECT_TRUE(DecodeChunkBody(*body.bytes, &out).ok());
  }
  return out;
}

// Reassembles a stream's payload into the same order-independent summary
// the executor computes, so streamed output can be compared byte-for-byte
// (count/digest/max sizes) against a batch run.
QuerySummary SummarizeChunks(
    const std::vector<StreamChunk>& chunks) {
  DigestAccumulator acc;
  for (const auto& chunk : chunks)
    for (const Biclique& b : DecodeBody(chunk.body)) acc.Add(b);
  QuerySummary summary;
  acc.FillSummary(&summary);
  return summary;
}

// Stream framing invariants: 1-based contiguous seq, chunk width bounded
// by `chunk_results`, cumulative results_so_far, and exactly one final
// marker, which comes last; the stream delivers `expect_results` in all.
void ExpectStreamFraming(const std::vector<StreamChunk>& chunks,
                         std::size_t chunk_results,
                         std::uint64_t expect_results,
                         const std::string& label) {
  ASSERT_FALSE(chunks.empty()) << label;
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const auto& chunk = chunks[i];
    EXPECT_EQ(chunk.seq, i + 1) << label;
    const std::vector<Biclique> bicliques = DecodeBody(chunk.body);
    EXPECT_LE(bicliques.size(), chunk_results);
    delivered += bicliques.size();
    EXPECT_EQ(chunk.results_so_far, delivered) << label;
    EXPECT_EQ(chunk.final, i + 1 == chunks.size()) << label;
  }
  EXPECT_EQ(delivered, expect_results) << label;
}

// Async chunk/result collector for ExecuteStreaming (which returns after
// admission; chunks and completion arrive from runner threads).
struct StreamRun {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  QueryResult result;
  std::vector<StreamChunk> chunks;

  void Start(QueryExecutor& exec, const QueryRequest& req) {
    exec.ExecuteStreaming(
        req,
        [this](const StreamChunk& chunk) {
          std::lock_guard<std::mutex> lock(mu);
          chunks.push_back(chunk);
        },
        [this](QueryResult r) {
          std::lock_guard<std::mutex> lock(mu);
          result = std::move(r);
          done = true;
          cv.notify_all();
        });
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return done; });
  }
};

// --- TopKKeeper ------------------------------------------------------------

TEST(TopKKeeperTest, KeepsBestFirstWithCanonicalTieBreak) {
  TopKKeeper keeper(3, TopKRank::kWeight);
  keeper.Offer(MakeBiclique({1}, {2}));          // weight 1
  keeper.Offer(MakeBiclique({1, 2}, {3, 4}));    // weight 4
  keeper.Offer(MakeBiclique({5, 6}, {7, 8}));    // weight 4, later canon
  keeper.Offer(MakeBiclique({0}, {1, 2, 3}));    // weight 3
  EXPECT_TRUE(keeper.full());
  EXPECT_EQ(keeper.KthValue(), 3u);

  std::vector<Biclique> best = keeper.Take();
  ASSERT_EQ(best.size(), 3u);
  EXPECT_EQ(best[0], MakeBiclique({1, 2}, {3, 4}));  // tie: smaller canon wins
  EXPECT_EQ(best[1], MakeBiclique({5, 6}, {7, 8}));
  EXPECT_EQ(best[2], MakeBiclique({0}, {1, 2, 3}));
  EXPECT_EQ(keeper.size(), 0u);  // Take drains.
}

TEST(TopKKeeperTest, ResultIsAPureFunctionOfTheOfferedSet) {
  // Many rank ties (every shape below has weight 2 or 4), so only the
  // canonical tie-break keeps the output deterministic.
  std::vector<Biclique> pool;
  for (VertexId i = 0; i < 24; ++i) {
    pool.push_back(MakeBiclique({i, static_cast<VertexId>(i + 100)},
                                {static_cast<VertexId>(i + 200)}));
    pool.push_back(MakeBiclique({static_cast<VertexId>(i + 50)},
                                {static_cast<VertexId>(i + 300),
                                 static_cast<VertexId>(i + 400)}));
  }
  for (TopKRank rank :
       {TopKRank::kWeight, TopKRank::kSize, TopKRank::kBalance}) {
    // Reference: sort the whole pool by (rank desc, canonical asc).
    std::vector<Biclique> expect = pool;
    std::sort(expect.begin(), expect.end(),
              [rank](const Biclique& a, const Biclique& b) {
                const std::uint64_t ra =
                    RankValue(a.upper.size(), a.lower.size(), rank);
                const std::uint64_t rb =
                    RankValue(b.upper.size(), b.lower.size(), rank);
                if (ra != rb) return ra > rb;
                return a < b;
              });
    expect.resize(7);

    for (unsigned seed = 1; seed <= 5; ++seed) {
      std::vector<Biclique> shuffled = pool;
      std::mt19937 rng(seed);
      std::shuffle(shuffled.begin(), shuffled.end(), rng);
      TopKKeeper keeper(7, rank);
      for (const Biclique& b : shuffled) keeper.Offer(b);
      EXPECT_EQ(keeper.Take(), expect)
          << "rank=" << ToString(rank) << " seed=" << seed;
    }
  }
}

TEST(TopKKeeperTest, KZeroClampsToOne) {
  TopKKeeper keeper(0, TopKRank::kWeight);
  EXPECT_EQ(keeper.k(), 1u);
  keeper.Offer(MakeBiclique({1}, {2}));
  keeper.Offer(MakeBiclique({1, 2}, {3, 4}));
  std::vector<Biclique> best = keeper.Take();
  ASSERT_EQ(best.size(), 1u);
  EXPECT_EQ(best[0], MakeBiclique({1, 2}, {3, 4}));
}

// --- ChunkSink -------------------------------------------------------------

TEST(ChunkSinkTest, FlushBoundariesCheckpointsAndFinish) {
  std::vector<std::size_t> sizes;
  std::vector<std::uint64_t> checkpoints;
  ChunkSink sink(3, [&](ChunkBody&& body, const StreamCheckpoint& cp) {
    const std::vector<Biclique> chunk = DecodeBody(body);
    sizes.push_back(chunk.size());
    checkpoints.push_back(cp.results);
    return true;
  });
  for (VertexId i = 0; i < 7; ++i)
    EXPECT_TRUE(sink.Accept(MakeBiclique({i}, {i})));
  sink.Finish();
  EXPECT_EQ(sizes, (std::vector<std::size_t>{3, 3, 1}));
  EXPECT_EQ(checkpoints, (std::vector<std::uint64_t>{3, 6, 7}));
  EXPECT_EQ(sink.results(), 7u);
  EXPECT_EQ(sink.chunks(), 3u);
}

TEST(ChunkSinkTest, EmptyRunStillFlushesOnce) {
  std::size_t flushes = 0;
  ChunkSink sink(4, [&](ChunkBody&& body, const StreamCheckpoint&) {
    const std::vector<Biclique> chunk = DecodeBody(body);
    ++flushes;
    EXPECT_TRUE(chunk.empty());
    return true;
  });
  sink.Finish();
  EXPECT_EQ(flushes, 1u);
}

TEST(ChunkSinkTest, FlushRejectionAbortsTheRun) {
  ChunkSink sink(1, [](ChunkBody&&, const StreamCheckpoint&) {
    return false;
  });
  EXPECT_FALSE(sink.Accept(MakeBiclique({1}, {2})));
  // Aborted sinks stay aborted: further accepts keep refusing.
  EXPECT_FALSE(sink.Accept(MakeBiclique({3}, {4})));
}

// --- streamed vs batch equivalence ------------------------------------------

struct EnginePath {
  const char* graph;
  FairModel model;
  FairAlgo algo;
};

TEST(StreamEquivalenceTest, StreamedDigestMatchesBatchAcrossEnginesAndThreads) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("big", StreamTestGraph()).ok());
  ASSERT_TRUE(catalog.AddGraph("small", SmallTestGraph()).ok());
  QueryExecutorOptions options;
  options.num_threads = 2;
  options.stream_chunk_results = 32;  // force multi-chunk streams.
  QueryExecutor exec(catalog, options);

  const EnginePath paths[] = {
      {"big", FairModel::kSsfbc, FairAlgo::kPlusPlus},
      {"big", FairModel::kSsfbc, FairAlgo::kBcem},
      {"big", FairModel::kBsfbc, FairAlgo::kBcem},
      // The naive engine is exponential on the affiliation graph; the
      // fourth path runs on the small uniform graph instead.
      {"small", FairModel::kSsfbc, FairAlgo::kNaive},
  };
  for (const EnginePath& path : paths) {
    for (unsigned threads : {1u, 2u, 8u}) {
      QueryRequest req = BaseRequest(path.graph, path.model, path.algo, threads);
      if (std::string(path.graph) == "big") {
        req.params.alpha = 3;
        req.params.beta = 3;
      }
      const std::string label = std::string(path.graph) + "/" +
                                ToString(path.model) + "/" +
                                ToString(path.algo) + "/t" +
                                std::to_string(threads);

      QueryResult batch = exec.Execute(req);
      ASSERT_TRUE(batch.status.ok()) << label << ": " << batch.status.ToString();

      StreamRun stream;
      stream.Start(exec, req);
      stream.Wait();
      ASSERT_TRUE(stream.result.status.ok())
          << label << ": " << stream.result.status.ToString();

      // Summary equivalence: the streamed summary is byte-identical to
      // the batch summary, and the reassembled chunk payload reproduces
      // it independently.
      EXPECT_EQ(stream.result.summary.count, batch.summary.count) << label;
      EXPECT_EQ(stream.result.summary.digest, batch.summary.digest) << label;
      EXPECT_EQ(stream.result.summary.max_upper, batch.summary.max_upper);
      EXPECT_EQ(stream.result.summary.max_lower, batch.summary.max_lower);
      EXPECT_TRUE(stream.result.bicliques.empty())
          << label << ": stream summaries must not duplicate the payload";

      const QuerySummary reassembled = SummarizeChunks(stream.chunks);
      EXPECT_EQ(reassembled.count, batch.summary.count) << label;
      EXPECT_EQ(reassembled.digest, batch.summary.digest) << label;
      EXPECT_EQ(reassembled.max_upper, batch.summary.max_upper) << label;
      EXPECT_EQ(reassembled.max_lower, batch.summary.max_lower) << label;

      ASSERT_NO_FATAL_FAILURE(ExpectStreamFraming(
          stream.chunks, options.stream_chunk_results, batch.summary.count,
          label));
    }
  }
}

// --- top-k -----------------------------------------------------------------

// Dense enough that every engine of both models finds hundreds of
// results (and the unpruned one still runs in milliseconds), with many
// ties at every rank value, so an over-cut of a tie shows.
BipartiteGraph TopKTestGraph() { return MakeUniformRandom(50, 50, 500, 2, 11); }

TEST(TopKQueryTest, TopKEqualsTopKOfFullEnumerationUnderEveryRank) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("g", StreamTestGraph()).ok());
  ASSERT_TRUE(catalog.AddGraph("u", TopKTestGraph()).ok());
  QueryExecutorOptions options;
  options.num_threads = 2;
  QueryExecutor exec(catalog, options);

  struct Row {
    std::string graph;
    FairModel model;
    FairAlgo algo;
    FairBicliqueParams params;
    std::uint32_t k;
  };
  std::vector<Row> rows = {{"g", FairModel::kSsfbc, FairAlgo::kPlusPlus,
                            {3, 3, 1, 0.0}, 10}};
  for (FairModel model : {FairModel::kSsfbc, FairModel::kBsfbc}) {
    for (FairAlgo algo :
         {FairAlgo::kPlusPlus, FairAlgo::kBcem, FairAlgo::kNaive}) {
      rows.push_back({"u", model, algo, {1, 1, 1, 0.0}, 5});
    }
    // θ = 0.4 drops results the δ = 2 run keeps (the proportional engines).
    rows.push_back({"u", model, FairAlgo::kPlusPlus, {1, 1, 2, 0.4}, 5});
  }

  for (const Row& row : rows) {
    QueryRequest full = BaseRequest(row.graph, row.model, row.algo, 1);
    full.params = row.params;
    full.include_bicliques = true;
    QueryResult everything = exec.Execute(full);
    const std::string label = row.graph + " " + ToString(row.model) + " " +
                              ToString(row.algo) + " theta=" +
                              std::to_string(row.params.theta);
    ASSERT_TRUE(everything.status.ok()) << label;
    ASSERT_GT(everything.bicliques.size(), 10u * row.k) << label;

    for (TopKRank rank :
         {TopKRank::kWeight, TopKRank::kSize, TopKRank::kBalance}) {
      TopKKeeper reference(row.k, rank);
      for (const Biclique& b : everything.bicliques) reference.Offer(b);
      const std::vector<Biclique> expect = reference.Take();

      for (unsigned threads : {1u, 4u}) {
        QueryRequest req = full;
        req.options.num_threads = threads;
        req.top_k = row.k;
        req.rank = rank;
        QueryResult got = exec.Execute(req);
        const std::string at =
            label + " " + ToString(rank) + " t" + std::to_string(threads);
        ASSERT_TRUE(got.status.ok()) << at;
        EXPECT_EQ(got.summary.count, expect.size()) << at;
        EXPECT_EQ(got.bicliques, expect)
            << at << ": pruned top-k must equal the top k of the full "
                     "enumeration";
      }
    }
  }
}

// The prune bound must cut work, not only keep the answer right: both
// ++ engines hand the top-k sink fewer results than the full run yields.
// The bound is checked on every subtree and on every result an engine
// derives others from (a maximal biclique under FairBCEM++, a
// single-side biclique under BFairBCEM++).
TEST(TopKQueryTest, PruneBoundCutsResultsBeforeTheSink) {
  // Counts the results offered to the top-k sink behind it.
  class OfferCounter final : public ResultSink {
   public:
    explicit OfferCounter(ResultSink& inner) : inner_(inner) {}
    bool Accept(const Biclique& b) override {
      ++offered_;
      return inner_.Accept(b);
    }
    std::uint64_t offered() const { return offered_; }

   private:
    ResultSink& inner_;
    std::uint64_t offered_ = 0;
  };

  const BipartiteGraph g = TopKTestGraph();
  const FairBicliqueParams params{1, 1, 1, 0.0};
  for (FairModel model : {FairModel::kSsfbc, FairModel::kBsfbc}) {
    CountSink full;
    RunEnumeration(g, model, FairAlgo::kPlusPlus, params, {}, full.AsSink());
    ASSERT_GT(full.count(), 100u) << ToString(model);
    for (TopKRank rank :
         {TopKRank::kWeight, TopKRank::kSize, TopKRank::kBalance}) {
      TopKSink topk(5, rank);
      OfferCounter counter(topk);
      EnumOptions options;
      options.topk = topk.prune_bound();
      RunEnumeration(g, model, FairAlgo::kPlusPlus, params, options,
                     counter.AsSink());
      EXPECT_LT(counter.offered(), full.count())
          << ToString(model) << " " << ToString(rank);
    }
  }
}

// The runner's top-k against brute-force oracles on small random graphs,
// at one and eight lanes.

std::uint64_t Rank(const Biclique& b, TopKRank rank) {
  return RankValue(b.upper.size(), b.lower.size(), rank);
}

// A top-k request for RunQuery that collects the kept set.
QueryRequest TopKRequest(FairModel model, const FairBicliqueParams& params,
                         std::uint32_t k, TopKRank rank, unsigned threads) {
  QueryRequest req;
  req.model = model;
  req.params = params;
  req.top_k = k;
  req.rank = rank;
  req.include_bicliques = true;
  req.options.num_threads = threads;
  return req;
}

// The bicliques a RunQuery run delivered, decoded from its bodies; the
// run's count must agree with them.
std::vector<Biclique> RunCollected(const QueryRequest& req,
                                   const BipartiteGraph& g) {
  QueryRun run = RunQuery(req, g, 4);
  std::vector<Biclique> out;
  EXPECT_TRUE(DecodeChunkBodies(run.bodies, &out).ok());
  EXPECT_EQ(run.summary.count, out.size());
  EXPECT_EQ(run.summary.stats.num_results, out.size());
  return out;
}

TEST(TopKQueryTest, RankValueComputesBothObjectives) {
  const Biclique b = MakeBiclique({1, 2, 3}, {4, 5});
  EXPECT_EQ(Rank(b, TopKRank::kWeight), 6u);  // |L| * |R|
  EXPECT_EQ(Rank(b, TopKRank::kSize), 5u);    // |L| + |R|
}

TEST(TopKQueryTest, SsfbcTopOneMatchesBruteForceMaximum) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 8, 0.5);
    FairBicliqueParams params{1, 1, 1, 0.0};
    const auto oracle = BruteForceSSFBC(g, params);
    for (TopKRank rank : {TopKRank::kWeight, TopKRank::kSize}) {
      std::uint64_t best = 0;
      for (const auto& b : oracle) best = std::max(best, Rank(b, rank));
      for (unsigned threads : {1u, 8u}) {
        const std::vector<Biclique> got = RunCollected(
            TopKRequest(FairModel::kSsfbc, params, 1, rank, threads), g);
        const std::string label = "seed=" + std::to_string(seed) + " " +
                                  ToString(rank) + " t" +
                                  std::to_string(threads);
        if (oracle.empty()) {
          EXPECT_TRUE(got.empty()) << label;
          continue;
        }
        ASSERT_EQ(got.size(), 1u) << label;
        EXPECT_EQ(Rank(got[0], rank), best) << label;
      }
    }
  }
}

TEST(TopKQueryTest, BsfbcTopOneMatchesBruteForceMaximum) {
  for (std::uint64_t seed = 60; seed < 72; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 6, 0.6);
    FairBicliqueParams params{1, 1, 1, 0.0};
    const auto oracle = BruteForceBSFBC(g, params);
    std::uint64_t best = 0;
    for (const auto& b : oracle) best = std::max(best, Rank(b, TopKRank::kWeight));
    for (unsigned threads : {1u, 8u}) {
      const std::vector<Biclique> got = RunCollected(
          TopKRequest(FairModel::kBsfbc, params, 1, TopKRank::kWeight,
                      threads),
          g);
      const std::string label =
          "seed=" + std::to_string(seed) + " t" + std::to_string(threads);
      if (oracle.empty()) {
        EXPECT_TRUE(got.empty()) << label;
        continue;
      }
      ASSERT_FALSE(got.empty()) << label;
      EXPECT_EQ(Rank(got[0], TopKRank::kWeight), best) << label;
    }
  }
}

TEST(TopKQueryTest, DeliversBestFirst) {
  BipartiteGraph g = RandomSmallGraph(33, 10, 0.5);
  FairBicliqueParams params{1, 1, 2, 0.0};
  for (unsigned threads : {1u, 8u}) {
    const std::vector<Biclique> got = RunCollected(
        TopKRequest(FairModel::kSsfbc, params, 5, TopKRank::kWeight, threads),
        g);
    ASSERT_LE(got.size(), 5u);
    for (std::size_t i = 1; i < got.size(); ++i) {
      EXPECT_GE(Rank(got[i - 1], TopKRank::kWeight),
                Rank(got[i], TopKRank::kWeight))
          << "t" << threads;
    }
  }
}

TEST(TopKQueryTest, KLargerThanResultSetKeepsEverything) {
  BipartiteGraph g = RandomSmallGraph(7, 6, 0.5);
  FairBicliqueParams params{1, 1, 1, 0.0};
  for (unsigned threads : {1u, 8u}) {
    QueryRequest full =
        TopKRequest(FairModel::kSsfbc, params, 0, TopKRank::kSize, threads);
    full.include_bicliques = false;
    const QueryRun everything = RunQuery(full, g, 4);
    const std::vector<Biclique> got = RunCollected(
        TopKRequest(FairModel::kSsfbc, params, 1000, TopKRank::kSize, threads),
        g);
    EXPECT_EQ(got.size(), everything.summary.stats.num_results)
        << "t" << threads;
  }
}

// A request's top_k = 0 means "no top-k"; the k = 0 clamp lives in the
// TopKSink the runner builds, which keeps at most one result then — the
// runner's own top-1.
TEST(TopKQueryTest, ZeroKSinkIsTreatedAsOne) {
  BipartiteGraph g = RandomSmallGraph(9, 6, 0.6);
  FairBicliqueParams params{1, 1, 1, 0.0};
  for (unsigned threads : {1u, 8u}) {
    TopKSink sink(0, TopKRank::kWeight);
    EnumOptions options;
    options.num_threads = threads;
    options.topk = sink.prune_bound();
    RunEnumeration(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params, options,
                   sink.AsSink());
    sink.Finish();
    const std::vector<Biclique> kept = sink.Take();
    EXPECT_LE(kept.size(), 1u) << "t" << threads;
    EXPECT_EQ(kept,
              RunCollected(TopKRequest(FairModel::kSsfbc, params, 1,
                                       TopKRank::kWeight, threads),
                           g))
        << "t" << threads;
  }
}

TEST(TopKQueryTest, EqualTopKUnderIdAndDegreeOrdering) {
  BipartiteGraph g = RandomSmallGraph(44, 10, 0.45);
  FairBicliqueParams params{1, 1, 1, 0.0};
  for (unsigned threads : {1u, 8u}) {
    QueryRequest id_ord =
        TopKRequest(FairModel::kSsfbc, params, 3, TopKRank::kWeight, threads);
    id_ord.options.ordering = VertexOrdering::kId;
    QueryRequest deg_ord = id_ord;
    deg_ord.options.ordering = VertexOrdering::kDegreeDesc;
    EXPECT_EQ(RunCollected(id_ord, g), RunCollected(deg_ord, g))
        << "t" << threads;
  }
}

// --- streaming single-flight and payload cache ------------------------------

TEST(StreamSingleFlightTest, LateSubscriberAttachesToLeaderChunkStream) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("g", StreamTestGraph()).ok());
  QueryExecutorOptions options;
  options.num_threads = 2;
  options.stream_chunk_results = 32;
  QueryExecutor exec(catalog, options);

  std::mutex mu;
  std::condition_variable cv;
  bool leader_parked = false;
  bool release = false;
  exec.SetExecuteHook([&](const QueryRequest&) {
    std::unique_lock<std::mutex> lock(mu);
    leader_parked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });

  QueryRequest req = BaseRequest("g", FairModel::kSsfbc, FairAlgo::kPlusPlus, 1);
  req.params.alpha = 3;
  req.params.beta = 3;
  req.use_cache = true;  // single-flight requires a cacheable query.

  StreamRun leader;
  leader.Start(exec, req);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return leader_parked; });
  }
  // The leader is parked pre-enumeration; this duplicate must attach to
  // its chunk stream instead of running the engines again.
  StreamRun follower;
  follower.Start(exec, req);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  leader.Wait();
  follower.Wait();
  exec.SetExecuteHook(nullptr);

  ASSERT_TRUE(leader.result.status.ok());
  ASSERT_TRUE(follower.result.status.ok());
  EXPECT_FALSE(leader.result.coalesced);
  EXPECT_TRUE(follower.result.coalesced);
  EXPECT_EQ(exec.execution_count(), 1u);

  const QuerySummary a = SummarizeChunks(leader.chunks);
  const QuerySummary b = SummarizeChunks(follower.chunks);
  EXPECT_GT(a.count, 0u);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(leader.chunks.size(), follower.chunks.size());
  EXPECT_EQ(follower.result.summary.digest, leader.result.summary.digest);
  ExpectStreamFraming(leader.chunks, options.stream_chunk_results,
                      leader.result.summary.count, "leader");
  ExpectStreamFraming(follower.chunks, options.stream_chunk_results,
                      leader.result.summary.count, "follower");
}

// A duplicate that arrives after the leader has delivered chunks
// replays that backlog first, then rides the live stream (or, if the
// leader finished meanwhile, settles from the complete backlog).
TEST(StreamSingleFlightTest, MidStreamSubscriberReplaysTheBacklog) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("g", StreamTestGraph()).ok());
  QueryExecutorOptions options;
  options.num_threads = 2;
  options.stream_chunk_results = 32;
  QueryExecutor exec(catalog, options);

  QueryRequest req = BaseRequest("g", FairModel::kSsfbc, FairAlgo::kPlusPlus, 1);
  req.params.alpha = 3;
  req.params.beta = 3;
  req.use_cache = true;

  // The leader's own callback parks inside its first chunk delivery, so
  // that chunk is already in the flight's backlog.
  std::mutex mu;
  std::condition_variable cv;
  bool first_delivered = false, release = false, leader_done = false;
  std::vector<StreamChunk> leader_chunks;
  QueryResult leader_result;
  exec.ExecuteStreaming(
      req,
      [&](const StreamChunk& chunk) {
        std::unique_lock<std::mutex> lock(mu);
        leader_chunks.push_back(chunk);
        if (first_delivered) return;
        first_delivered = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
      },
      [&](QueryResult r) {
        std::lock_guard<std::mutex> lock(mu);
        leader_result = std::move(r);
        leader_done = true;
        cv.notify_all();
      });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return first_delivered; });
  }
  // The duplicate subscribes from a helper thread: it waits for the
  // flight lock the parked leader holds. Admission counts it as pending
  // before it takes that lock.
  StreamRun follower;
  std::thread attacher([&] { follower.Start(exec, req); });
  while (exec.async_pending() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  attacher.join();
  follower.Wait();
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return leader_done; });
  }

  ASSERT_TRUE(leader_result.status.ok());
  ASSERT_TRUE(follower.result.status.ok());
  EXPECT_FALSE(leader_result.coalesced);
  EXPECT_TRUE(follower.result.coalesced);
  EXPECT_EQ(exec.execution_count(), 1u);
  EXPECT_EQ(follower.chunks.size(), leader_chunks.size());
  const QuerySummary a = SummarizeChunks(leader_chunks);
  const QuerySummary b = SummarizeChunks(follower.chunks);
  EXPECT_GT(a.count, 0u);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.digest, b.digest);
  ExpectStreamFraming(leader_chunks, options.stream_chunk_results,
                      leader_result.summary.count, "leader");
  ExpectStreamFraming(follower.chunks, options.stream_chunk_results,
                      leader_result.summary.count, "follower");
}

TEST(StreamCacheTest, RetainedPayloadReplaysChunksOnRepeat) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("g", StreamTestGraph()).ok());
  QueryExecutorOptions options;
  options.num_threads = 2;
  options.stream_chunk_results = 32;
  QueryExecutor exec(catalog, options);

  QueryRequest req = BaseRequest("g", FairModel::kSsfbc, FairAlgo::kPlusPlus, 1);
  req.params.alpha = 3;
  req.params.beta = 3;
  req.use_cache = true;

  StreamRun first;
  first.Start(exec, req);
  first.Wait();
  ASSERT_TRUE(first.result.status.ok());
  EXPECT_FALSE(first.result.cache_hit);

  StreamRun second;
  second.Start(exec, req);
  second.Wait();
  ASSERT_TRUE(second.result.status.ok());
  EXPECT_TRUE(second.result.cache_hit);
  EXPECT_EQ(exec.execution_count(), 1u) << "replay must skip the engines";

  const QuerySummary a = SummarizeChunks(first.chunks);
  const QuerySummary b = SummarizeChunks(second.chunks);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(second.result.summary.digest, first.result.summary.digest);
  ExpectStreamFraming(second.chunks, options.stream_chunk_results,
                      first.result.summary.count, "cache replay");
}

// One payload serves both kinds of cache hit: a collecting run's payload
// replays as a stream framed like a live one, and a stream's payload
// decodes back into a collecting hit's bicliques, in emission order.
TEST(StreamCacheTest, PayloadServesCollectingAndStreamingHits) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("g", StreamTestGraph()).ok());
  QueryExecutorOptions options;
  options.num_threads = 2;
  options.stream_chunk_results = 32;
  QueryExecutor exec(catalog, options);

  QueryRequest collect =
      BaseRequest("g", FairModel::kSsfbc, FairAlgo::kPlusPlus, 1);
  collect.use_cache = true;
  collect.include_bicliques = true;
  const QueryResult collected = exec.Execute(collect);
  ASSERT_TRUE(collected.status.ok());
  ASSERT_GT(collected.bicliques.size(), options.stream_chunk_results);
  StreamRun replay;
  replay.Start(exec, collect);
  replay.Wait();
  ASSERT_TRUE(replay.result.cache_hit);
  ExpectStreamFraming(replay.chunks, options.stream_chunk_results,
                      collected.summary.count, "collected payload replay");
  std::vector<Biclique> replayed;
  for (const auto& chunk : replay.chunks) {
    for (Biclique& b : DecodeBody(chunk.body)) replayed.push_back(std::move(b));
  }
  EXPECT_EQ(replayed, collected.bicliques);

  QueryRequest stream =
      BaseRequest("g", FairModel::kSsfbc, FairAlgo::kPlusPlus, 1);
  stream.params.alpha = 3;
  stream.use_cache = true;
  StreamRun live;
  live.Start(exec, stream);
  live.Wait();
  ASSERT_FALSE(live.result.cache_hit);
  std::vector<Biclique> streamed;
  for (const auto& chunk : live.chunks) {
    for (Biclique& b : DecodeBody(chunk.body)) streamed.push_back(std::move(b));
  }
  stream.include_bicliques = true;
  const QueryResult hit = exec.Execute(stream);
  ASSERT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.bicliques, streamed);
  EXPECT_EQ(hit.summary.digest, live.result.summary.digest);
  EXPECT_EQ(exec.execution_count(), 2u);
}

// --- chunk wire codec -------------------------------------------------------

TEST(ChunkCodecTest, RoundTripTruncationsAndHostileCount) {
  const std::vector<Biclique> bicliques = {
      MakeBiclique({1, 2}, {3}),
      MakeBiclique({4}, {5, 6, 7}),
  };
  const std::string payload = wire::EncodeChunkPayload(3, 10, 99, bicliques);
  auto decoded = wire::DecodeChunkPayload(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().seq, 3u);
  EXPECT_EQ(decoded.value().results_so_far, 10u);
  EXPECT_EQ(decoded.value().nodes_so_far, 99u);
  EXPECT_EQ(decoded.value().bicliques, bicliques);

  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(wire::DecodeChunkPayload(payload.substr(0, len)).ok())
        << "truncation at " << len;
  }
  EXPECT_FALSE(wire::DecodeChunkPayload(payload + '\0').ok())
      << "trailing bytes must be rejected";

  // A hostile biclique count (declared 2^32-1 in a tiny payload) must be
  // rejected from the declared sizes, before any allocation.
  std::string hostile = payload;
  for (std::size_t i = 24; i < 28; ++i) hostile[i] = '\xff';
  EXPECT_FALSE(wire::DecodeChunkPayload(hostile).ok());
}

// --- server line protocol: chunk framing + strict validation ----------------

TEST(ServerStreamingTest, LineProtocolChunksCarryRequestIdAndEndMarker) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("g", StreamTestGraph()).ok());
  QueryExecutorOptions options;
  options.num_threads = 2;
  options.stream_chunk_results = 32;
  QueryExecutor exec(catalog, options);
  ServerSession session(catalog, exec, 7);

  std::string response;
  bool stop = false;
  ASSERT_TRUE(testing::HandleLine(
      session,
      "query graph=g model=ssfbc algo=pp alpha=3 beta=3 delta=1 cache=0 "
      "stream=1 rid=abc-123",
      &response, &stop));

  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= response.size()) {
    const std::size_t nl = response.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(response.substr(start));
      break;
    }
    lines.push_back(response.substr(start, nl - start));
    start = nl + 1;
  }
  ASSERT_GE(lines.size(), 2u) << response.substr(0, 400);
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    EXPECT_NE(lines[i].find("\"cmd\":\"chunk\""), std::string::npos) << i;
    EXPECT_NE(lines[i].find("\"request_id\":\"abc-123\""), std::string::npos);
    EXPECT_NE(lines[i].find("\"session\":7"), std::string::npos) << i;
  }
  // The regular reply line is the end-of-stream marker and echoes the id.
  const std::string& last = lines.back();
  EXPECT_NE(last.find("\"ok\":true"), std::string::npos) << last;
  EXPECT_NE(last.find("\"request_id\":\"abc-123\""), std::string::npos);
  EXPECT_EQ(last.find("\"cmd\":\"chunk\""), std::string::npos);
}

TEST(ServerStreamingTest, TraceAndCacheArgumentsAreStrictlyValidated) {
  GraphCatalog catalog;
  QueryExecutor exec(catalog, {});
  ServerSession session(catalog, exec, 1);
  std::string response;
  bool stop = false;

  ASSERT_TRUE(
      testing::HandleLine(session, "trace bogus=1", &response, &stop));
  EXPECT_NE(response.find("\"code\":\"bad_argument\""), std::string::npos);
  EXPECT_NE(response.find("trace does not take \\\"bogus\\\""),
            std::string::npos)
      << response;

  ASSERT_TRUE(testing::HandleLine(session, "trace n=0", &response, &stop));
  EXPECT_NE(response.find("\"code\":\"bad_argument\""), std::string::npos);

  ASSERT_TRUE(
      testing::HandleLine(session, "trace n=zebra", &response, &stop));
  EXPECT_NE(response.find("\"code\":\"bad_argument\""), std::string::npos);

  ASSERT_TRUE(testing::HandleLine(session, "cache n=3", &response, &stop));
  EXPECT_NE(response.find("\"code\":\"bad_argument\""), std::string::npos);
  EXPECT_NE(response.find("cache does not take \\\"n\\\""), std::string::npos);

  ASSERT_TRUE(testing::HandleLine(session, "cache", &response, &stop));
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;

  // rid validation: embedded quote can never reach JSON verbatim.
  ASSERT_TRUE(testing::HandleLine(session, "query graph=g rid=bad\"token",
                                  &response, &stop));
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
  EXPECT_NE(response.find("rid"), std::string::npos);
}

// The catalog commands refuse a key they do not take, with the untyped
// error shape their other errors use, and act on nothing: a refused `gen`
// adds no graph, a refused `save` writes no file, a refused `load` adds
// no entry and a refused `drop` drops nothing.
TEST(ServerStreamingTest, CatalogCommandsRejectUnknownKeys) {
  GraphCatalog catalog;
  QueryExecutor exec(catalog, {});
  ServerSession session(catalog, exec, 1);
  std::string response;
  bool stop = false;
  const std::string snap = ::testing::TempDir() + "/catalog_strict.snap";
  std::remove(snap.c_str());
  auto refused = [&](const std::string& line, const std::string& key) {
    ASSERT_TRUE(testing::HandleLine(session, line, &response, &stop)) << line;
    EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
    EXPECT_EQ(response.find("\"code\""), std::string::npos) << response;
    EXPECT_NE(response.find("does not take \\\"" + key + "\\\""),
              std::string::npos)
        << response;
  };
  auto accepted = [&](const std::string& line) {
    ASSERT_TRUE(testing::HandleLine(session, line, &response, &stop)) << line;
    EXPECT_NE(response.find("\"ok\":true"), std::string::npos)
        << line << ": " << response;
  };

  refused("gen name=h kind=uniform nu=20 nv=20 edgs=5", "edgs");
  EXPECT_EQ(catalog.Get("h"), nullptr);
  accepted("gen name=h kind=uniform nu=20 nv=20 edges=50 gamma=2.5");

  refused("save name=h path=" + snap + " blok=7", "blok");
  EXPECT_FALSE(std::ifstream(snap).good()) << "a refused save wrote " << snap;
  accepted("save name=h path=" + snap + " compress=1 block=7");

  refused("load name=h2 path=" + snap + " fromat=attr", "fromat");
  EXPECT_EQ(catalog.Get("h2"), nullptr);
  accepted("load name=h2 path=" + snap + " format=snapshot");

  refused("drop name=h nmae=zz", "nmae");
  EXPECT_NE(catalog.Get("h"), nullptr);
  accepted("drop name=h");
  EXPECT_EQ(catalog.Get("h"), nullptr);
  std::remove(snap.c_str());
}

TEST(RequestIdValidationTest, AcceptsTokensRejectsUnsafeBytes) {
  EXPECT_TRUE(ValidRequestId(""));
  EXPECT_TRUE(ValidRequestId("abc-123_XYZ.42:span/7"));
  EXPECT_TRUE(ValidRequestId(std::string(128, 'a')));
  EXPECT_FALSE(ValidRequestId(std::string(129, 'a')));
  EXPECT_FALSE(ValidRequestId("has space"));
  EXPECT_FALSE(ValidRequestId("has\"quote"));
  EXPECT_FALSE(ValidRequestId("has\\slash"));
  EXPECT_FALSE(ValidRequestId(std::string("nul\0byte", 8)));
  EXPECT_FALSE(ValidRequestId("tab\there"));
}

}  // namespace
}  // namespace fairbc
