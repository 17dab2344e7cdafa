// Reuse of graph reductions across queries: the ReductionCache's LRU and
// byte budget, equality of cached and fresh reductions, and the
// QueryExecutor wiring — use_cache=0 runs that take a cached reduction
// return the cold run's count and digest, and reloading a name with
// different content never serves the old survivors.

#include "core/reduction_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/cfcore.h"
#include "core/pipeline.h"
#include "graph/generators.h"
#include "graph/snapshot.h"
#include "service/graph_catalog.h"
#include "service/query_executor.h"
#include "service/response_json.h"

namespace fairbc {
namespace {

BipartiteGraph TestGraph(std::uint64_t seed = 23) {
  AffiliationConfig config;
  config.num_upper = 400;
  config.num_lower = 400;
  config.num_communities = 20;
  config.seed = seed;
  return MakeAffiliation(config);
}

template <typename T>
std::vector<T> ToVector(std::span<const T> span) {
  return std::vector<T>(span.begin(), span.end());
}

void ExpectSameGraph(const BipartiteGraph& a, const BipartiteGraph& b) {
  for (Side side : {Side::kUpper, Side::kLower}) {
    EXPECT_EQ(ToVector(a.Offsets(side)), ToVector(b.Offsets(side)));
    EXPECT_EQ(ToVector(a.NeighborArray(side)), ToVector(b.NeighborArray(side)));
    EXPECT_EQ(ToVector(a.AttrArray(side)), ToVector(b.AttrArray(side)));
    EXPECT_EQ(a.NumAttrs(side), b.NumAttrs(side));
  }
}

/// A reduction of about `bytes` bytes (whole ids) for the budget tests;
/// its graph is empty.
std::shared_ptr<const Reduction> ReductionOfBytes(std::size_t bytes) {
  auto r = std::make_shared<Reduction>();
  const std::size_t base = r->MemoryBytes();
  r->maps.upper_to_parent.resize((bytes - base) / sizeof(VertexId));
  return r;
}

ReductionKey KeyWithAlpha(std::uint32_t alpha) {
  return ReductionKey{7, false, alpha, 2, PruningLevel::kColorful};
}

TEST(ReductionCacheTest, HitsMissesAndFirstInsertWins) {
  ReductionCache cache(1 << 20);
  EXPECT_EQ(cache.Lookup(KeyWithAlpha(2)), nullptr);
  auto first = ReductionOfBytes(1000);
  auto second = ReductionOfBytes(1000);
  cache.Insert(KeyWithAlpha(2), first);
  cache.Insert(KeyWithAlpha(2), second);  // a concurrent miss's late insert.
  EXPECT_EQ(cache.Lookup(KeyWithAlpha(2)), first);
  // Every key field separates entries.
  EXPECT_EQ(cache.Lookup(ReductionKey{8, false, 2, 2, PruningLevel::kColorful}),
            nullptr);
  EXPECT_EQ(cache.Lookup(ReductionKey{7, true, 2, 2, PruningLevel::kColorful}),
            nullptr);
  EXPECT_EQ(cache.Lookup(ReductionKey{7, false, 2, 3, PruningLevel::kColorful}),
            nullptr);
  EXPECT_EQ(cache.Lookup(ReductionKey{7, false, 2, 2, PruningLevel::kCore}),
            nullptr);
  const auto t = cache.telemetry();
  EXPECT_EQ(t.hits, 1u);
  EXPECT_EQ(t.misses, 5u);
  EXPECT_EQ(t.entries, 1u);
  EXPECT_EQ(t.bytes, first->MemoryBytes());
}

TEST(ReductionCacheTest, OversizedEntryIsNeverKept) {
  MetricsRegistry metrics;
  ReductionCache cache(4096, &metrics);
  cache.Insert(KeyWithAlpha(2), ReductionOfBytes(4100));
  EXPECT_EQ(cache.Lookup(KeyWithAlpha(2)), nullptr);
  EXPECT_EQ(cache.telemetry().entries, 0u);
  EXPECT_EQ(cache.telemetry().evictions, 0u);
  EXPECT_EQ(metrics.GetGauge("fairbc_reduction_cache_bytes", "")->Value(), 0);
}

TEST(ReductionCacheTest, FillingTheBudgetEvictsLeastRecentlyUsed) {
  MetricsRegistry metrics;
  const std::size_t entry_bytes = ReductionOfBytes(1000)->MemoryBytes();
  const std::size_t budget = 3 * entry_bytes;
  ReductionCache cache(budget, &metrics);
  const Gauge* bytes = metrics.GetGauge("fairbc_reduction_cache_bytes", "");
  // A run still searching an evicted reduction keeps it alive.
  std::shared_ptr<const Reduction> held = ReductionOfBytes(1000);
  cache.Insert(KeyWithAlpha(1), held);
  for (std::uint32_t alpha = 2; alpha <= 12; ++alpha) {
    cache.Insert(KeyWithAlpha(alpha), ReductionOfBytes(1000));
    EXPECT_LE(bytes->Value(), static_cast<std::int64_t>(budget));
    EXPECT_LE(cache.telemetry().bytes, budget);
  }
  const auto t = cache.telemetry();
  EXPECT_EQ(t.entries, 3u);
  EXPECT_EQ(t.evictions, 9u);  // 12 inserted, 3 fit.
  EXPECT_EQ(bytes->Value(), static_cast<std::int64_t>(3 * entry_bytes));
  EXPECT_EQ(cache.Lookup(KeyWithAlpha(1)), nullptr);
  EXPECT_NE(cache.Lookup(KeyWithAlpha(12)), nullptr);
  EXPECT_EQ(held->maps.upper_to_parent.size(),
            (1000 - Reduction().MemoryBytes()) / sizeof(VertexId));

  // A lookup refreshes recency: the refreshed key outlives an older one.
  ReductionCache order(budget);
  for (std::uint32_t alpha = 1; alpha <= 3; ++alpha) {
    order.Insert(KeyWithAlpha(alpha), ReductionOfBytes(1000));
  }
  ASSERT_NE(order.Lookup(KeyWithAlpha(1)), nullptr);
  order.Insert(KeyWithAlpha(4), ReductionOfBytes(1000));
  EXPECT_NE(order.Lookup(KeyWithAlpha(1)), nullptr);
  EXPECT_EQ(order.Lookup(KeyWithAlpha(2)), nullptr);
  EXPECT_EQ(order.telemetry().evictions, 1u);
}

/// The pipeline keeps a reduction equal to one computed from scratch
/// (the paper's reduction plus compaction, no pipeline), and a second run
/// takes it from the cache with unchanged results and survivor counts.
TEST(ReductionCacheTest, CachedReductionEqualsAFreshOne) {
  const BipartiteGraph g = TestGraph();
  for (FairModel model : {FairModel::kSsfbc, FairModel::kBsfbc}) {
    for (unsigned threads : {1u, 8u}) {
      SCOPED_TRACE(std::string(model == FairModel::kBsfbc ? "bsfbc" : "ssfbc") +
                   " threads=" + std::to_string(threads));
      const bool bi_side = model == FairModel::kBsfbc;
      const FairBicliqueParams params{2, 2, 1, 0.0};
      ReductionCache cache(4u << 20);
      const ReductionCacheRef ref{&cache, GraphFingerprint(g)};
      EnumOptions options;
      options.num_threads = threads;
      options.reductions = &ref;

      CountSink cold_sink;
      const EnumStats cold = RunEnumeration(g, model, FairAlgo::kPlusPlus,
                                            params, options,
                                            cold_sink.AsSink());
      EXPECT_FALSE(cold.reduction_cached);
      const ReductionKey key{ref.graph_version, bi_side, 2, 2,
                             PruningLevel::kColorful};
      std::shared_ptr<const Reduction> cached = cache.Lookup(key);
      ASSERT_NE(cached, nullptr);

      const PruneResult fresh =
          bi_side ? BCFCore(g, 2, 2) : CFCore(g, 2, 2);
      IdMaps fresh_maps;
      const BipartiteGraph fresh_graph =
          InducedSubgraph(g, fresh.masks, &fresh_maps);
      ExpectSameGraph(cached->graph, fresh_graph);
      EXPECT_EQ(cached->maps.upper_to_parent, fresh_maps.upper_to_parent);
      EXPECT_EQ(cached->maps.lower_to_parent, fresh_maps.lower_to_parent);
      EXPECT_EQ(cached->peak_struct_bytes, fresh.peak_struct_bytes);
      ASSERT_GT(fresh_maps.upper_to_parent.size(), 0u);

      CountSink warm_sink;
      const EnumStats warm = RunEnumeration(g, model, FairAlgo::kPlusPlus,
                                            params, options,
                                            warm_sink.AsSink());
      EXPECT_TRUE(warm.reduction_cached);
      EXPECT_EQ(warm.prune_seconds, 0.0);
      EXPECT_EQ(warm.prune_construct_seconds, 0.0);
      EXPECT_EQ(warm.prune_color_seconds, 0.0);
      EXPECT_EQ(warm.prune_peel_seconds, 0.0);
      EXPECT_EQ(warm.remaining_upper, cold.remaining_upper);
      EXPECT_EQ(warm.remaining_lower, cold.remaining_lower);
      EXPECT_EQ(warm.num_results, cold.num_results);
      EXPECT_EQ(warm_sink.count(), cold_sink.count());
      EXPECT_EQ(cache.telemetry().hits, 2u);  // the Lookup above + warm.
    }
  }
}

// --- through the QueryExecutor -----------------------------------------------

QueryRequest Request(FairModel model, unsigned threads) {
  QueryRequest req;
  req.graph = "g";
  req.model = model;
  req.params = {2, 2, 1, 0.0};
  req.options.num_threads = threads;
  req.use_cache = false;  // result cache bypassed: every query executes.
  return req;
}

/// A use_cache=0 query that takes its reduction from the cache answers
/// exactly as a cold run: both models, 1 and 8 threads, plain, theta > 0
/// and top-k requests.
TEST(ReductionCacheExecutorTest, UncachedQueriesReuseReductions) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("g", TestGraph()).ok());
  for (FairModel model : {FairModel::kSsfbc, FairModel::kBsfbc}) {
    for (unsigned threads : {1u, 8u}) {
      for (int variant = 0; variant < 3; ++variant) {
        QueryRequest req = Request(model, threads);
        if (variant == 1) req.params.theta = 0.4;
        if (variant == 2) req.top_k = 5;
        SCOPED_TRACE(std::string(ToString(model)) +
                     " threads=" + std::to_string(threads) +
                     " variant=" + std::to_string(variant));
        QueryExecutor executor(catalog, {});
        const QueryResult cold = executor.Execute(req);
        ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
        EXPECT_FALSE(cold.summary.stats.reduction_cached);
        ASSERT_GT(cold.summary.count, 0u);

        const QueryResult warm = executor.Execute(req);
        ASSERT_TRUE(warm.status.ok());
        EXPECT_FALSE(warm.cache_hit);
        EXPECT_TRUE(warm.summary.stats.reduction_cached);
        EXPECT_EQ(warm.summary.stats.prune_seconds, 0.0);
        EXPECT_EQ(warm.summary.count, cold.summary.count);
        EXPECT_EQ(warm.summary.digest, cold.summary.digest);
        EXPECT_EQ(warm.summary.stats.remaining_upper,
                  cold.summary.stats.remaining_upper);
        EXPECT_EQ(warm.summary.stats.remaining_lower,
                  cold.summary.stats.remaining_lower);
        EXPECT_NE(QueryResultJson(req, warm).find("\"reduce_cached\":true"),
                  std::string::npos);

        // delta does not enter the reduction: another delta hits too.
        QueryRequest other_delta = req;
        other_delta.params.delta = 2;
        EXPECT_TRUE(
            executor.Execute(other_delta).summary.stats.reduction_cached);

        const auto t = executor.telemetry().reductions;
        EXPECT_EQ(t.misses, 1u);
        EXPECT_EQ(t.hits, 2u);
        EXPECT_EQ(t.entries, 1u);
        const std::string json = ExecutorTelemetryJson(executor.telemetry());
        EXPECT_NE(json.find("\"reduction_hits\":2"), std::string::npos)
            << json;
        EXPECT_NE(json.find("\"reduction_misses\":1"), std::string::npos);
      }
    }
  }
}

/// The side model, alpha, beta and the pruning level each select their
/// own reduction: one executor answers every such query as a cold run.
TEST(ReductionCacheExecutorTest, KeySeparatesModelsParamsAndPruning) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("g", TestGraph()).ok());
  QueryExecutor executor(catalog, {});
  std::vector<QueryRequest> requests;
  requests.push_back(Request(FairModel::kSsfbc, 1));
  requests.push_back(Request(FairModel::kBsfbc, 1));
  requests.push_back(Request(FairModel::kSsfbc, 1));
  requests.back().params.alpha = 3;
  requests.push_back(Request(FairModel::kSsfbc, 1));
  requests.back().params.beta = 3;
  requests.push_back(Request(FairModel::kSsfbc, 1));
  requests.back().options.pruning = PruningLevel::kCore;
  for (int pass = 0; pass < 2; ++pass) {
    for (const QueryRequest& req : requests) {
      CountSink reference;
      const EnumStats expected =
          RunEnumeration(TestGraph(), req.model, req.algo, req.params,
                         req.options, reference.AsSink());
      const QueryResult got = executor.Execute(req);
      ASSERT_TRUE(got.status.ok());
      EXPECT_EQ(got.summary.stats.reduction_cached, pass == 1);
      EXPECT_EQ(got.summary.count, expected.num_results);
      EXPECT_EQ(got.summary.stats.remaining_upper, expected.remaining_upper);
      EXPECT_EQ(got.summary.stats.remaining_lower, expected.remaining_lower);
    }
  }
  EXPECT_EQ(executor.telemetry().reductions.entries, requests.size());
}

/// Concurrent executions of one key: misses may race and both reduce,
/// but every run answers alike, and one entry is kept.
TEST(ReductionCacheExecutorTest, ConcurrentRunsShareOneReduction) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("g", TestGraph()).ok());
  QueryExecutorOptions options;
  options.num_threads = 4;
  QueryExecutor executor(catalog, options);
  std::vector<QueryRequest> requests;
  for (int i = 0; i < 8; ++i) {
    requests.push_back(Request(FairModel::kBsfbc, i % 2 == 0 ? 1 : 2));
    requests.back().params.delta = 1 + i % 2;
  }
  const std::vector<QueryResult> results = executor.ExecuteBatch(requests);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok());
    EXPECT_EQ(results[i].summary.digest, results[i % 2].summary.digest);
    EXPECT_EQ(results[i].summary.count, results[i % 2].summary.count);
  }
  const auto t = executor.telemetry().reductions;
  EXPECT_EQ(t.hits + t.misses, requests.size());
  EXPECT_GE(t.misses, 1u);
  EXPECT_EQ(t.entries, 1u);
}

/// Replacing a name with different content makes the next query a
/// reduction miss that answers for the new content; reloading identical
/// content may hit, because the key is the content fingerprint.
TEST(ReductionCacheExecutorTest, ReloadNeverServesOldSurvivors) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("g", TestGraph(23)).ok());
  QueryExecutor executor(catalog, {});
  const QueryRequest req = Request(FairModel::kSsfbc, 1);
  const QueryResult a = executor.Execute(req);
  ASSERT_TRUE(a.status.ok());
  EXPECT_FALSE(a.summary.stats.reduction_cached);
  EXPECT_TRUE(executor.Execute(req).summary.stats.reduction_cached);

  // gen/load of different content under the same name.
  ASSERT_TRUE(catalog.AddGraph("g", TestGraph(24)).ok());
  const QueryResult b = executor.Execute(req);
  ASSERT_TRUE(b.status.ok());
  EXPECT_FALSE(b.summary.stats.reduction_cached);
  EXPECT_NE(b.graph_version, a.graph_version);
  CountSink reference;
  EnumOptions options;
  const EnumStats expected =
      RunEnumeration(TestGraph(24), FairModel::kSsfbc, FairAlgo::kPlusPlus,
                     req.params, options, reference.AsSink());
  EXPECT_EQ(b.summary.count, expected.num_results);
  EXPECT_NE(b.summary.digest, a.summary.digest);
  EXPECT_EQ(b.summary.stats.remaining_upper, expected.remaining_upper);

  // Identical content again, through a snapshot file: same version, so
  // the first graph's reduction is still a valid hit.
  const std::string path = ::testing::TempDir() + "/reduction_reload.snap";
  ASSERT_TRUE(WriteSnapshot(TestGraph(23), path).ok());
  ASSERT_TRUE(
      catalog.AddFromFile("g", path, GraphCatalog::Format::kSnapshot).ok());
  const QueryResult again = executor.Execute(req);
  EXPECT_EQ(again.graph_version, a.graph_version);
  EXPECT_TRUE(again.summary.stats.reduction_cached);
  EXPECT_EQ(again.summary.count, a.summary.count);
  EXPECT_EQ(again.summary.digest, a.summary.digest);
  EXPECT_EQ(executor.telemetry().reductions.entries, 2u);
}

}  // namespace
}  // namespace fairbc
