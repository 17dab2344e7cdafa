// Service-layer tests: GraphCatalog semantics, ResultCache LRU +
// telemetry, and the concurrent-query equivalence acceptance criterion —
// batches executed on pool widths {2, 8} must return results
// byte-identical to serial pipeline runs, with cache hits verified on
// repeated parameters and the snapshot load measurably faster than the
// text parse on the largest generator config.

#include "service/query_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/snapshot.h"
#include "service/graph_catalog.h"
#include "service/query.h"
#include "service/response_json.h"
#include "service/result_cache.h"
#include "test_util.h"

namespace fairbc {
namespace {

BipartiteGraph ServiceTestGraph() {
  AffiliationConfig config;
  config.num_upper = 400;
  config.num_lower = 400;
  config.num_communities = 20;
  config.seed = 23;
  return MakeAffiliation(config);
}

QuerySummary SummaryWithCount(std::uint64_t count) {
  QuerySummary s;
  s.count = count;
  return s;
}

TEST(GraphCatalogTest, AddGetRemoveAndVersioning) {
  GraphCatalog catalog;
  EXPECT_EQ(catalog.Get("g"), nullptr);
  EXPECT_FALSE(catalog.AddGraph("", ServiceTestGraph()).ok());

  ASSERT_TRUE(catalog.AddGraph("g", ServiceTestGraph()).ok());
  auto entry = catalog.Get("g");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->name, "g");
  EXPECT_EQ(entry->version, GraphFingerprint(entry->graph));
  EXPECT_EQ(catalog.size(), 1u);

  // Replacing a name publishes a new entry; the old handle stays valid
  // and unchanged (immutability invariant).
  ASSERT_TRUE(catalog.AddGraph("g", MakeUniformRandom(50, 50, 200, 2, 9)).ok());
  auto replaced = catalog.Get("g");
  ASSERT_NE(replaced, nullptr);
  EXPECT_NE(replaced->version, entry->version);
  EXPECT_EQ(entry->graph.NumUpper(), 400u);  // old handle untouched.

  EXPECT_TRUE(catalog.Remove("g"));
  EXPECT_FALSE(catalog.Remove("g"));
  EXPECT_EQ(catalog.Get("g"), nullptr);
}

TEST(GraphCatalogTest, AddFromFileAllFormatsAndErrors) {
  GraphCatalog catalog;
  const BipartiteGraph g = ServiceTestGraph();
  const std::string attr_path = ::testing::TempDir() + "/catalog_g.fbg";
  const std::string snap_path = ::testing::TempDir() + "/catalog_g.snap";
  ASSERT_TRUE(WriteAttributedGraph(g, attr_path).ok());
  ASSERT_TRUE(WriteSnapshot(g, snap_path).ok());

  ASSERT_TRUE(
      catalog.AddFromFile("t", attr_path, GraphCatalog::Format::kAttr).ok());
  ASSERT_TRUE(
      catalog.AddFromFile("s", snap_path, GraphCatalog::Format::kSnapshot).ok());
  // Same content through either path → same version.
  EXPECT_EQ(catalog.Get("t")->version, catalog.Get("s")->version);

  // The mmap format registers a view entry with the same version (same
  // bytes) and no per-load CSR copies.
  ASSERT_TRUE(
      catalog.AddFromFile("m", snap_path, GraphCatalog::Format::kSnapshotMmap)
          .ok());
  EXPECT_TRUE(catalog.Get("m")->graph.IsView());
  EXPECT_EQ(catalog.Get("m")->version, catalog.Get("s")->version);
  ASSERT_EQ(ParseCatalogFormat("mmap"), GraphCatalog::Format::kSnapshotMmap);
  EXPECT_STREQ(ToString(GraphCatalog::Format::kSnapshotMmap), "mmap");

  Status missing = catalog.AddFromFile("x", ::testing::TempDir() + "/nope.snap",
                                       GraphCatalog::Format::kSnapshot);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(catalog.Get("x"), nullptr);

  // A text file fed to the snapshot loader fails with a Status.
  Status wrong =
      catalog.AddFromFile("x", attr_path, GraphCatalog::Format::kSnapshot);
  EXPECT_FALSE(wrong.ok());
}

TEST(GraphCatalogTest, EntriesReportTheirSnapshotVersion) {
  GraphCatalog catalog;
  const BipartiteGraph g = ServiceTestGraph();
  const std::string v2 = ::testing::TempDir() + "/catalog_v2.snap";
  const std::string v3 = ::testing::TempDir() + "/catalog_v3.snap";
  const std::string text = ::testing::TempDir() + "/catalog_v.fbg";
  ASSERT_TRUE(WriteSnapshot(g, v2).ok());
  ASSERT_TRUE(WriteSnapshot(g, v3, {.version = kSnapshotVersionCompressed})
                  .ok());
  ASSERT_TRUE(WriteAttributedGraph(g, text).ok());
  for (auto format :
       {GraphCatalog::Format::kSnapshot, GraphCatalog::Format::kSnapshotMmap}) {
    ASSERT_TRUE(catalog.AddFromFile("v2", v2, format).ok());
    ASSERT_TRUE(catalog.AddFromFile("v3", v3, format).ok());
    EXPECT_EQ(catalog.Get("v2")->snapshot_version, 2u) << ToString(format);
    EXPECT_EQ(catalog.Get("v3")->snapshot_version, 3u) << ToString(format);
    EXPECT_EQ(catalog.Get("v2")->version, catalog.Get("v3")->version);
  }
  ASSERT_TRUE(
      catalog.AddFromFile("t", text, GraphCatalog::Format::kAttr).ok());
  EXPECT_EQ(catalog.Get("t")->snapshot_version, 0u);
}

TEST(ResultCacheTest, LruEvictionAndTelemetry) {
  ResultCache cache(2);
  EXPECT_FALSE(cache.Lookup("a").has_value());
  cache.Insert("a", SummaryWithCount(1));
  cache.Insert("b", SummaryWithCount(2));
  ASSERT_TRUE(cache.Lookup("a").has_value());  // refreshes a's recency.
  cache.Insert("c", SummaryWithCount(3));      // evicts b, not a.
  EXPECT_TRUE(cache.Lookup("a").has_value());
  EXPECT_FALSE(cache.Lookup("b").has_value());
  ASSERT_TRUE(cache.Lookup("c").has_value());
  EXPECT_EQ(cache.Lookup("c")->count, 3u);

  auto t = cache.telemetry();
  EXPECT_EQ(t.evictions, 1u);
  EXPECT_EQ(t.entries, 2u);
  EXPECT_EQ(t.insertions, 3u);
  EXPECT_EQ(t.hits + t.misses, 6u);  // the six Lookup calls above.

  cache.Clear();
  t = cache.telemetry();
  EXPECT_EQ(t.entries, 0u);
  EXPECT_EQ(t.hits, 0u);
}

TEST(ResultCacheTest, ZeroCapacityDisablesButCountsMisses) {
  ResultCache cache(0);
  cache.Insert("a", SummaryWithCount(1));
  EXPECT_FALSE(cache.Lookup("a").has_value());
  EXPECT_FALSE(cache.Lookup("b").has_value());
  auto t = cache.telemetry();
  EXPECT_EQ(t.insertions, 0u);
  EXPECT_EQ(t.entries, 0u);
  // A disabled cache still reports its lookup traffic: a --cache=0
  // server under load must show real misses, not zeros.
  EXPECT_EQ(t.misses, 2u);
  EXPECT_EQ(t.hits, 0u);
  EXPECT_EQ(t.HitRate(), 0.0);
}

// Every enumerator has exactly one entry in its name table, the name and
// the wire byte both lead back to it, and the first entry is the
// request's default.
template <typename E>
void ExpectTableCovers(std::initializer_list<E> all, E default_value) {
  const auto names = NamesOf(default_value);
  EXPECT_EQ(names.size(), all.size());
  EXPECT_EQ(names[0].value, default_value);
  for (E value : all) {
    EXPECT_EQ(ParseName<E>(ToString(value)), value);
    EXPECT_EQ(EnumAt<E>(EnumIndex(value)), value);
  }
  EXPECT_FALSE(EnumAt<E>(names.size()).has_value());
  EXPECT_FALSE(ParseName<E>("").has_value());
}

TEST(RequestTablesTest, NameTablesCoverEveryEnumerator) {
  const QueryRequest defaults;
  ExpectTableCovers({FairModel::kSsfbc, FairModel::kBsfbc}, defaults.model);
  ExpectTableCovers({FairAlgo::kPlusPlus, FairAlgo::kBcem, FairAlgo::kNaive},
                    defaults.algo);
  ExpectTableCovers({VertexOrdering::kDegreeDesc, VertexOrdering::kId},
                    defaults.options.ordering);
  ExpectTableCovers(
      {PruningLevel::kColorful, PruningLevel::kCore, PruningLevel::kNone},
      defaults.options.pruning);
  ExpectTableCovers({TopKRank::kWeight, TopKRank::kSize, TopKRank::kBalance},
                    defaults.rank);
}

TEST(CacheKeyTest, DistinguishesEveryParameter) {
  QueryRequest base;
  base.graph = "g";
  base.params = {2, 2, 1, 0.0};
  const std::string key = CanonicalCacheKey(base, 42);

  EXPECT_EQ(CanonicalCacheKey(base, 42), key);
  EXPECT_NE(CanonicalCacheKey(base, 43), key);
  auto differ = [&](auto mutate) {
    QueryRequest req = base;
    mutate(req);
    return CanonicalCacheKey(req, 42);
  };
  EXPECT_NE(differ([](QueryRequest& r) { r.model = FairModel::kBsfbc; }), key);
  EXPECT_NE(differ([](QueryRequest& r) { r.algo = FairAlgo::kNaive; }), key);
  EXPECT_NE(differ([](QueryRequest& r) { r.params.alpha = 3; }), key);
  EXPECT_NE(differ([](QueryRequest& r) { r.params.beta = 3; }), key);
  EXPECT_NE(differ([](QueryRequest& r) { r.params.delta = 2; }), key);
  EXPECT_NE(differ([](QueryRequest& r) { r.params.theta = 0.3; }), key);
  EXPECT_NE(differ([](QueryRequest& r) {
              r.options.ordering = VertexOrdering::kId;
            }),
            key);
  EXPECT_NE(differ([](QueryRequest& r) {
              r.options.pruning = PruningLevel::kNone;
            }),
            key);
  // Thread count deliberately does NOT change the key.
  EXPECT_EQ(differ([](QueryRequest& r) { r.options.num_threads = 8; }), key);
}

std::vector<QueryRequest> MixedRequests(const std::string& graph) {
  std::vector<QueryRequest> requests;
  for (auto model : {FairModel::kSsfbc, FairModel::kBsfbc}) {
    for (std::uint32_t alpha = 2; alpha <= 3; ++alpha) {
      for (std::uint32_t delta = 1; delta <= 2; ++delta) {
        QueryRequest req;
        req.graph = graph;
        req.model = model;
        req.params = {alpha, 2, delta, 0.0};
        req.include_bicliques = true;
        requests.push_back(req);
      }
    }
  }
  return requests;
}

/// Acceptance criterion: concurrent batches on pool widths {2, 8} return
/// result sets byte-identical to serial pipeline runs of the same
/// queries, and repeated parameters afterwards are served from the cache
/// with the same summary.
TEST(QueryExecutorTest, ConcurrentBatchesMatchSerialRuns) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("g", ServiceTestGraph()).ok());
  const std::vector<QueryRequest> requests = MixedRequests("g");

  // Serial reference: plain RunEnumeration, num_threads = 1.
  std::vector<std::vector<Biclique>> expected;
  std::vector<EnumStats> expected_stats;
  for (const QueryRequest& req : requests) {
    CollectSink sink;
    expected_stats.push_back(RunEnumeration(ServiceTestGraph(), req.model,
                                            req.algo, req.params, req.options,
                                            sink.AsSink()));
    expected.push_back(testing::Canonicalize(sink.results()));
    ASSERT_FALSE(expected.back().empty());
  }

  for (unsigned width : {2u, 8u}) {
    QueryExecutorOptions options;
    options.num_threads = width;
    QueryExecutor executor(catalog, options);
    ASSERT_EQ(executor.num_threads(), width);

    std::vector<QueryResult> results = executor.ExecuteBatch(requests);
    ASSERT_EQ(results.size(), requests.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok()) << results[i].status.ToString();
      EXPECT_FALSE(results[i].cache_hit);  // all parameter points distinct.
      EXPECT_EQ(testing::Canonicalize(results[i].bicliques), expected[i])
          << "width=" << width << " query=" << i;
      EXPECT_EQ(results[i].summary.count, expected_stats[i].num_results);
      EXPECT_EQ(results[i].summary.stats.num_results,
                expected_stats[i].num_results);
    }

    // Replay summary-only: every repeat must hit the cache and agree.
    std::vector<QueryRequest> replay = requests;
    for (QueryRequest& req : replay) req.include_bicliques = false;
    std::vector<QueryResult> cached = executor.ExecuteBatch(replay);
    for (std::size_t i = 0; i < cached.size(); ++i) {
      ASSERT_TRUE(cached[i].status.ok());
      EXPECT_TRUE(cached[i].cache_hit) << "width=" << width << " query=" << i;
      EXPECT_EQ(cached[i].summary.count, results[i].summary.count);
      EXPECT_EQ(cached[i].summary.digest, results[i].summary.digest);
    }
    const auto telemetry = executor.cache().telemetry();
    EXPECT_EQ(telemetry.hits, requests.size());
    EXPECT_GE(telemetry.insertions, requests.size());
  }
}

TEST(QueryExecutorTest, DigestIsThreadCountInvariant) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("g", ServiceTestGraph()).ok());
  QueryExecutor executor(catalog, {});

  QueryRequest req;
  req.graph = "g";
  req.params = {2, 2, 1, 0.0};
  req.use_cache = false;  // force real runs.
  QueryResult serial = executor.Execute(req);
  ASSERT_TRUE(serial.status.ok());

  req.options.num_threads = 4;  // parallel search inside one query.
  QueryResult parallel = executor.Execute(req);
  ASSERT_TRUE(parallel.status.ok());
  EXPECT_EQ(parallel.summary.count, serial.summary.count);
  EXPECT_EQ(parallel.summary.digest, serial.summary.digest);
  EXPECT_EQ(parallel.summary.max_upper, serial.summary.max_upper);
  EXPECT_EQ(parallel.summary.max_lower, serial.summary.max_lower);
}

TEST(QueryExecutorTest, UnknownGraphAndNoCachePaths) {
  GraphCatalog catalog;
  QueryExecutorOptions options;
  options.num_threads = 2;
  QueryExecutor executor(catalog, options);

  QueryRequest req;
  req.graph = "missing";
  QueryResult result = executor.Execute(req);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kNotFound);

  ASSERT_TRUE(catalog.AddGraph("g", ServiceTestGraph()).ok());
  req.graph = "g";
  req.use_cache = false;
  EXPECT_TRUE(executor.Execute(req).status.ok());
  EXPECT_TRUE(executor.Execute(req).status.ok());
  EXPECT_EQ(executor.cache().telemetry().hits, 0u);
  EXPECT_EQ(executor.cache().telemetry().insertions, 0u);
}

TEST(QueryExecutorTest, BudgetExhaustedRunsAreNotCached) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("g", ServiceTestGraph()).ok());
  QueryExecutor executor(catalog, {});

  QueryRequest req;
  req.graph = "g";
  req.params = {1, 1, 4, 0.0};
  req.options.node_budget = 1;  // trips immediately.
  QueryResult result = executor.Execute(req);
  ASSERT_TRUE(result.status.ok());
  ASSERT_TRUE(result.summary.stats.budget_exhausted);
  EXPECT_EQ(executor.cache().telemetry().insertions, 0u);

  // The partial run must not be served to an unbudgeted repeat.
  req.options.node_budget = 0;
  QueryResult full = executor.Execute(req);
  ASSERT_TRUE(full.status.ok());
  EXPECT_FALSE(full.cache_hit);
  EXPECT_FALSE(full.summary.stats.budget_exhausted);
  EXPECT_GE(full.summary.count, result.summary.count);
}

/// Single-flight admission: N identical summary-only queries fired
/// concurrently result in exactly ONE execution; every other caller is
/// either coalesced behind the in-flight leader or served by the cache
/// the leader filled — and all of them report the same digest. The
/// executions==1 assertion is timing-independent: admission (cache
/// lookup + in-flight join) is atomic in the executor.
TEST(QueryExecutorTest, ConcurrentIdenticalQueriesCoalesce) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("g", ServiceTestGraph()).ok());
  QueryExecutor executor(catalog, {});

  QueryRequest req;
  req.graph = "g";
  req.params = {2, 2, 1, 0.0};

  constexpr unsigned kCallers = 6;
  std::vector<QueryResult> results(kCallers);
  std::barrier sync(kCallers);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kCallers; ++t) {
    threads.emplace_back([&, t] {
      sync.arrive_and_wait();
      results[t] = executor.Execute(req);
    });
  }
  for (std::thread& t : threads) t.join();

  unsigned ran = 0, coalesced = 0, cache_hits = 0;
  for (const QueryResult& r : results) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.summary.digest, results[0].summary.digest);
    EXPECT_EQ(r.summary.count, results[0].summary.count);
    ran += (!r.cache_hit && !r.coalesced) ? 1 : 0;
    coalesced += r.coalesced ? 1 : 0;
    cache_hits += r.cache_hit ? 1 : 0;
  }
  EXPECT_EQ(executor.execution_count(), 1u);
  EXPECT_EQ(ran, 1u);
  EXPECT_EQ(coalesced + cache_hits, kCallers - 1);
  auto telemetry = executor.telemetry();
  EXPECT_EQ(telemetry.executions, 1u);
  EXPECT_EQ(telemetry.coalesced, coalesced);
  EXPECT_EQ(telemetry.cache.insertions, 1u);

  // A later identical query is a plain cache hit, not a new execution.
  QueryResult replay = executor.Execute(req);
  EXPECT_TRUE(replay.cache_hit);
  EXPECT_EQ(executor.execution_count(), 1u);
}

/// Queries that must not share results do not coalesce: use_cache=false
/// callers always run themselves.
TEST(QueryExecutorTest, UncachedQueriesDoNotCoalesce) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("g", ServiceTestGraph()).ok());
  QueryExecutor executor(catalog, {});

  QueryRequest req;
  req.graph = "g";
  req.params = {2, 2, 1, 0.0};
  req.use_cache = false;

  constexpr unsigned kCallers = 3;
  std::vector<QueryResult> results(kCallers);
  std::barrier sync(kCallers);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kCallers; ++t) {
    threads.emplace_back([&, t] {
      sync.arrive_and_wait();
      results[t] = executor.Execute(req);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const QueryResult& r : results) {
    ASSERT_TRUE(r.status.ok());
    EXPECT_FALSE(r.cache_hit);
    EXPECT_FALSE(r.coalesced);
    EXPECT_EQ(r.summary.digest, results[0].summary.digest);
  }
  EXPECT_EQ(executor.execution_count(), kCallers);
  EXPECT_EQ(executor.coalesced_count(), 0u);
}

/// Queries carrying their own budget never wait on an identical-key
/// leader (whose runtime may exceed their deadline — the cache key
/// excludes budgets): they run themselves, so `coalesced` can never be
/// set on a budgeted result, whatever the interleaving.
TEST(QueryExecutorTest, BudgetedQueriesNeverWaitOnALeader) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("g", ServiceTestGraph()).ok());
  QueryExecutor executor(catalog, {});

  QueryRequest slow;
  slow.graph = "g";
  slow.params = {2, 2, 1, 0.0};

  QueryRequest budgeted = slow;
  budgeted.options.time_budget_seconds = 0.001;

  constexpr unsigned kPairs = 3;
  std::vector<QueryResult> budgeted_results(kPairs);
  std::barrier sync(2 * kPairs);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kPairs; ++t) {
    threads.emplace_back([&] {
      sync.arrive_and_wait();
      (void)executor.Execute(slow);
    });
    threads.emplace_back([&, t] {
      sync.arrive_and_wait();
      budgeted_results[t] = executor.Execute(budgeted);
    });
  }
  for (std::thread& t : threads) t.join();

  for (const QueryResult& r : budgeted_results) {
    ASSERT_TRUE(r.status.ok());
    // Whatever the interleaving: a cache hit (leader already published)
    // or an own run — never an adopted wait.
    EXPECT_FALSE(r.coalesced);
  }
}

/// A query inside an ExecuteBatch runs at its requested width: its lanes
/// queue on the executor's pool behind the busy runners instead of being
/// clamped to one, and the result set is the direct run's.
TEST(QueryExecutorTest, BatchHonoursRequestedThreads) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("g", ServiceTestGraph()).ok());
  QueryExecutorOptions options;
  options.num_threads = 2;
  QueryExecutor executor(catalog, options);

  std::vector<QueryRequest> requests = MixedRequests("g");
  for (QueryRequest& req : requests) {
    req.include_bicliques = false;
    req.use_cache = false;  // force real runs on both paths.
    req.options.num_threads = 8;
  }
  std::vector<QueryResult> batched = executor.ExecuteBatch(requests);
  ASSERT_EQ(batched.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(batched[i].status.ok());
    QueryResult direct = executor.Execute(requests[i]);
    ASSERT_TRUE(direct.status.ok());
    EXPECT_EQ(direct.summary.digest, batched[i].summary.digest) << i;
    EXPECT_EQ(direct.summary.count, batched[i].summary.count) << i;
  }
}

/// Queries run identically against an mmap'd catalog entry: same digest
/// and count as the owned-snapshot entry of the same bytes.
TEST(QueryExecutorTest, MmapEntryMatchesOwnedEntry) {
  const std::string snap_path = ::testing::TempDir() + "/exec_mmap.snap";
  ASSERT_TRUE(WriteSnapshot(ServiceTestGraph(), snap_path).ok());
  GraphCatalog catalog;
  ASSERT_TRUE(
      catalog.AddFromFile("owned", snap_path, GraphCatalog::Format::kSnapshot)
          .ok());
  ASSERT_TRUE(catalog
                  .AddFromFile("mapped", snap_path,
                               GraphCatalog::Format::kSnapshotMmap)
                  .ok());
  ASSERT_TRUE(catalog.Get("mapped")->graph.IsView());
  QueryExecutor executor(catalog, {});

  QueryRequest req;
  req.graph = "owned";
  req.params = {2, 2, 1, 0.0};
  req.use_cache = false;  // same content ⇒ same cache key; force real runs.
  QueryResult owned = executor.Execute(req);
  req.graph = "mapped";
  QueryResult mapped = executor.Execute(req);
  ASSERT_TRUE(owned.status.ok());
  ASSERT_TRUE(mapped.status.ok());
  EXPECT_EQ(executor.execution_count(), 2u);
  EXPECT_EQ(owned.graph_version, mapped.graph_version);
  EXPECT_EQ(owned.summary.digest, mapped.summary.digest);
  EXPECT_EQ(owned.summary.count, mapped.summary.count);
}

/// Acceptance criterion: loading the largest generator config from a
/// binary snapshot is measurably faster than parsing the text format.
TEST(SnapshotSpeedTest, SnapshotLoadsFasterThanTextParse) {
  // The largest generator config exercised in tests: ~100k edges.
  const BipartiteGraph g = MakeUniformRandom(20000, 20000, 100000, 4, 3);
  const std::string attr_path = ::testing::TempDir() + "/speed.fbg";
  const std::string snap_path = ::testing::TempDir() + "/speed.snap";
  ASSERT_TRUE(WriteAttributedGraph(g, attr_path).ok());
  ASSERT_TRUE(WriteSnapshot(g, snap_path).ok());

  // Best-of-3 per loader to damp scheduler/page-cache noise; the text
  // parser does per-token integer parsing, the snapshot loader six bulk
  // reads, so the gap is large (>5x) and the assertion has headroom.
  double text_seconds = 1e9;
  double snap_seconds = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    Timer t1;
    auto parsed = ReadAttributedGraph(attr_path);
    ASSERT_TRUE(parsed.ok());
    text_seconds = std::min(text_seconds, t1.ElapsedSeconds());

    Timer t2;
    auto loaded = ReadSnapshot(snap_path);
    ASSERT_TRUE(loaded.ok());
    snap_seconds = std::min(snap_seconds, t2.ElapsedSeconds());

    if (rep == 0) {
      EXPECT_EQ(GraphFingerprint(parsed.value()),
                GraphFingerprint(loaded.value()));
    }
  }
  EXPECT_LT(snap_seconds, text_seconds)
      << "snapshot load " << snap_seconds << "s vs text parse "
      << text_seconds << "s";
}

// --- async completion-list single-flight ------------------------------------

unsigned CountProcessThreads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<unsigned>(std::stoul(line.substr(8)));
    }
  }
  return 0;
}

/// Acceptance criterion: duplicate queries registered through
/// ExecuteAsync park as completion callbacks, not blocked threads — the
/// process thread count stays fixed while N duplicates are in flight,
/// and an unrelated query still completes on the free runner.
TEST(QueryExecutorAsyncTest, DuplicatesParkAsCompletionsNotThreads) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("g", ServiceTestGraph()).ok());
  QueryExecutorOptions options;
  options.num_threads = 2;  // one for the blocked leader, one free.
  QueryExecutor executor(catalog, options);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};
  executor.SetExecuteHook([&](const QueryRequest& req) {
    if (req.params.alpha != 9) return;
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });

  QueryRequest blocked;
  blocked.graph = "g";
  blocked.params = {9, 2, 1, 0.0};

  std::mutex done_mu;
  std::condition_variable done_cv;
  std::vector<QueryResult> results;
  auto collect = [&](QueryResult r) {
    std::lock_guard<std::mutex> lock(done_mu);
    results.push_back(std::move(r));
    done_cv.notify_all();
  };

  constexpr unsigned kDuplicates = 8;
  executor.ExecuteAsync(blocked, collect);  // leader
  while (entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const unsigned threads_before = CountProcessThreads();
  ASSERT_GT(threads_before, 0u);

  for (unsigned i = 1; i < kDuplicates; ++i) {
    executor.ExecuteAsync(blocked, collect);  // parked waiters
  }
  EXPECT_EQ(executor.async_pending(), kDuplicates);
  // Every duplicate is registered, none holds a thread: the count is
  // exactly what it was with only the leader running.
  EXPECT_EQ(CountProcessThreads(), threads_before);

  // The second runner is idle, not parked on the leader: an unrelated
  // query completes end-to-end while all 8 duplicates are in flight.
  QueryRequest other;
  other.graph = "g";
  other.params = {2, 2, 1, 0.0};
  {
    std::mutex m2;
    std::condition_variable cv2;
    bool other_done = false;
    QueryResult other_result;
    executor.ExecuteAsync(other, [&](QueryResult r) {
      std::lock_guard<std::mutex> lock(m2);
      other_result = std::move(r);
      other_done = true;
      cv2.notify_one();
    });
    std::unique_lock<std::mutex> lock(m2);
    ASSERT_TRUE(cv2.wait_for(lock, std::chrono::seconds(30),
                             [&] { return other_done; }));
    EXPECT_TRUE(other_result.status.ok());
  }
  EXPECT_EQ(entered.load(), 1) << "duplicates must not have executed";

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  {
    std::unique_lock<std::mutex> lock(done_mu);
    ASSERT_TRUE(done_cv.wait_for(lock, std::chrono::seconds(30), [&] {
      return results.size() == kDuplicates;
    }));
  }
  unsigned coalesced = 0;
  for (const QueryResult& r : results) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.summary.digest, results[0].summary.digest);
    coalesced += r.coalesced ? 1 : 0;
  }
  EXPECT_EQ(coalesced, kDuplicates - 1);
  // One run for the blocked key, one for the unrelated query.
  EXPECT_EQ(executor.execution_count(), 2u);
  EXPECT_EQ(executor.coalesced_count(), kDuplicates - 1);
  EXPECT_EQ(executor.async_pending(), 0u);
  executor.SetExecuteHook(nullptr);
}

/// A budget-limited leader publishes nothing reusable; parked waiters
/// are re-admitted instead of being handed the partial summary. The
/// waiter comes in two kinds — an ExecuteAsync completion and a
/// synchronous Execute on a helper thread — which share one re-admission
/// path.
TEST(QueryExecutorAsyncTest, PartialLeaderReadmitsItsWaiters) {
  for (const bool sync_waiter : {false, true}) {
    SCOPED_TRACE(sync_waiter ? "sync Execute waiter" : "async waiter");
    GraphCatalog catalog;
    ASSERT_TRUE(catalog.AddGraph("g", ServiceTestGraph()).ok());
    QueryExecutorOptions options;
    options.num_threads = 2;
    QueryExecutor executor(catalog, options);

    std::mutex mu;
    std::condition_variable cv;
    bool release = false;
    std::atomic<int> calls{0};
    executor.SetExecuteHook([&](const QueryRequest& req) {
      if (req.params.alpha != 5) return;
      if (calls.fetch_add(1) != 0) return;  // only the first run stalls.
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    });

    // Leader carries a 1-node budget: guaranteed partial on this graph.
    QueryRequest partial;
    partial.graph = "g";
    partial.params = {5, 2, 1, 0.0};
    partial.options.node_budget = 1;

    std::mutex done_mu;
    std::condition_variable done_cv;
    QueryResult leader_result, waiter_result;
    bool leader_done = false, waiter_done = false;
    executor.ExecuteAsync(partial, [&](QueryResult r) {
      std::lock_guard<std::mutex> lock(done_mu);
      leader_result = std::move(r);
      leader_done = true;
      done_cv.notify_all();
    });
    while (calls.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    // The unbudgeted duplicate parks behind the leader (same cache key:
    // budgets are excluded from the canonical key).
    QueryRequest full = partial;
    full.options.node_budget = 0;
    auto record_waiter = [&](QueryResult r) {
      std::lock_guard<std::mutex> lock(done_mu);
      waiter_result = std::move(r);
      waiter_done = true;
      done_cv.notify_all();
    };
    std::thread sync_caller;
    if (sync_waiter) {
      sync_caller = std::thread([&] { record_waiter(executor.Execute(full)); });
      // Execute admits like ExecuteAsync; wait until it has subscribed.
      while (executor.async_pending() < 2) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    } else {
      executor.ExecuteAsync(full, record_waiter);
    }
    EXPECT_EQ(executor.async_pending(), 2u);

    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
    {
      std::unique_lock<std::mutex> lock(done_mu);
      ASSERT_TRUE(done_cv.wait_for(lock, std::chrono::seconds(30), [&] {
        return leader_done && waiter_done;
      }));
    }
    if (sync_caller.joinable()) sync_caller.join();

    ASSERT_TRUE(leader_result.status.ok());
    EXPECT_TRUE(leader_result.summary.stats.budget_exhausted);
    ASSERT_TRUE(waiter_result.status.ok());
    // The waiter was re-admitted and ran the query itself, to completion.
    EXPECT_FALSE(waiter_result.coalesced);
    EXPECT_FALSE(waiter_result.summary.stats.budget_exhausted);
    EXPECT_GE(waiter_result.summary.count, leader_result.summary.count);
    EXPECT_EQ(executor.execution_count(), 2u);

    // Only the full run was cached.
    QueryResult replay = executor.Execute(full);
    EXPECT_TRUE(replay.cache_hit);
    EXPECT_FALSE(replay.summary.stats.budget_exhausted);
    executor.SetExecuteHook(nullptr);
  }
}

/// Cache hits complete the async path inline on the calling thread — no
/// runner round-trip for served-from-cache queries.
TEST(QueryExecutorAsyncTest, CacheHitsCompleteInline) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("g", ServiceTestGraph()).ok());
  QueryExecutor executor(catalog, {});

  QueryRequest req;
  req.graph = "g";
  req.params = {2, 2, 1, 0.0};
  ASSERT_TRUE(executor.Execute(req).status.ok());

  const std::thread::id caller = std::this_thread::get_id();
  bool done_inline = false;
  executor.ExecuteAsync(req, [&](QueryResult r) {
    EXPECT_TRUE(r.cache_hit);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    done_inline = true;
  });
  EXPECT_TRUE(done_inline) << "cache hits must not bounce via the pool";

  // Unknown graphs fail inline the same way.
  QueryRequest missing;
  missing.graph = "nope";
  bool failed_inline = false;
  executor.ExecuteAsync(missing, [&](QueryResult r) {
    EXPECT_FALSE(r.status.ok());
    failed_inline = true;
  });
  EXPECT_TRUE(failed_inline);
}

}  // namespace
}  // namespace fairbc
