// ThreadPool tests: the FIFO pool, batches of lanes (exactly-once tasks,
// exclusive lane indices, nested and concurrent batches), drain on
// destruction, and the bound on OS threads a wide query may cause.

#include "core/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "graph/generators.h"
#include "service/graph_catalog.h"
#include "service/query_executor.h"

namespace fairbc {
namespace {

TEST(ThreadPoolTest, EveryTaskRunsExactlyOnceIncludingSubmitted) {
  ThreadPool pool(3);
  constexpr std::uint64_t kTasks = 200;
  constexpr std::uint64_t kChildren = 3;
  // Slots [0, kTasks) count index tasks; slot kTasks + i * kChildren + c
  // counts child c submitted by index task i.
  std::vector<std::atomic<int>> runs(kTasks * (1 + kChildren));
  pool.ParallelFor(4, kTasks, [&](std::uint64_t task, unsigned) {
    runs[task].fetch_add(1);
    for (std::uint64_t c = 0; c < kChildren; ++c) {
      ThreadPool::Submit([&, task, c](unsigned) {
        runs[kTasks + task * kChildren + c].fetch_add(1);
      });
    }
  });
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "slot " << i;
  }
}

TEST(ThreadPoolTest, LanesAreExclusiveAndInRange) {
  ThreadPool pool(4);
  constexpr unsigned kWidth = 3;
  std::vector<std::atomic<bool>> busy(kWidth);
  std::atomic<int> violations{0};
  std::atomic<std::uint64_t> ran{0};
  auto occupy = [&](unsigned lane) {
    if (lane >= kWidth) {
      violations.fetch_add(1);
      return;
    }
    if (busy[lane].exchange(true)) violations.fetch_add(1);
    std::this_thread::yield();
    busy[lane].store(false);
    ran.fetch_add(1);
  };
  pool.ParallelFor(kWidth, 500, [&](std::uint64_t task, unsigned lane) {
    occupy(lane);
    if (task % 50 == 0) {
      for (int c = 0; c < 4; ++c) ThreadPool::Submit(occupy);
    }
  });
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(ran.load(), 500u + 10u * 4u);
}

TEST(ThreadPoolTest, NestedBatchOnOneWorkerPoolCompletes) {
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::uint64_t sum = 0;
  // The pool's only worker runs the outer task, so the inner batch's
  // helper lanes can never start before it returns.
  pool.Post([&] {
    EXPECT_EQ(ThreadPool::Current(), &pool);
    std::atomic<std::uint64_t> inner{0};
    pool.ParallelFor(4, 100, [&](std::uint64_t task, unsigned) {
      inner.fetch_add(task);
    });
    std::lock_guard<std::mutex> lock(mu);
    sum = inner.load();
    done = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  EXPECT_EQ(sum, 99u * 100u / 2u);
  EXPECT_EQ(ThreadPool::Current(), nullptr);
}

TEST(ThreadPoolTest, ConcurrentBatchesFromExternalThreads) {
  ThreadPool pool(2);
  constexpr int kCallers = 8;
  constexpr std::uint64_t kTasks = 1000;
  std::vector<std::uint64_t> sums(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      std::atomic<std::uint64_t> sum{0};
      pool.ParallelFor(4, kTasks, [&](std::uint64_t task, unsigned) {
        sum.fetch_add(task + static_cast<std::uint64_t>(c));
      });
      sums[c] = sum.load();
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(sums[c], kTasks * (kTasks - 1) / 2 +
                           kTasks * static_cast<std::uint64_t>(c))
        << "caller " << c;
  }
}

TEST(ThreadPoolTest, DestructorRunsPostedTasks) {
  std::atomic<int> ran{0};
  std::atomic<bool> release{false};
  std::thread releaser;
  {
    ThreadPool pool(1);
    // Hold the only worker until the destructor has begun, so the other
    // tasks are still queued when it does.
    pool.Post([&] {
      while (!release.load()) std::this_thread::yield();
      ran.fetch_add(1);
    });
    for (int i = 0; i < 10; ++i) pool.Post([&] { ran.fetch_add(1); });
    releaser = std::thread([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      release.store(true);
    });
  }
  releaser.join();
  EXPECT_EQ(ran.load(), 11);
}

// --- Bounded threads ---------------------------------------------------------

std::size_t CountThreads() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

// Largest thread count seen from inside a run's result delivery.
struct PeakThreads {
  std::mutex mu;
  std::size_t peak = 0;
  std::size_t samples = 0;

  void Sample() {
    std::lock_guard<std::mutex> lock(mu);
    if (samples >= 256) return;  // directory scans are slow; a few suffice.
    ++samples;
    peak = std::max(peak, CountThreads());
  }
};

BipartiteGraph BoundedThreadsGraph() {
  AffiliationConfig config;
  config.num_upper = 400;
  config.num_lower = 400;
  config.num_communities = 20;
  config.seed = 23;
  return MakeAffiliation(config);
}

// Wide enough that spawning a thread per lane would be unmistakable, and
// no wider: a spawning implementation really creates that many threads.
constexpr unsigned kWideQuery = 64;

TEST(BoundedThreadsTest, WideLibraryQueryAddsNoThreads) {
  const BipartiteGraph g = BoundedThreadsGraph();
  const FairBicliqueParams params{2, 2, 1, 0.0};
  EnumOptions options;
  options.num_threads = kWideQuery;
  auto run = [&](PeakThreads* peak) {
    return RunEnumeration(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params,
                          options, [peak](const Biclique&) {
                            if (peak != nullptr) peak->Sample();
                            return true;
                          });
  };
  const EnumStats warm = run(nullptr);  // builds the process pool.
  ASSERT_GT(warm.num_results, 0u);
  const std::size_t baseline = CountThreads();

  PeakThreads peak;
  const EnumStats stats = run(&peak);
  EXPECT_EQ(stats.num_results, warm.num_results);
  ASSERT_GT(peak.samples, 0u);
  EXPECT_LE(peak.peak, baseline);
}

TEST(BoundedThreadsTest, WideExecutorQueryAddsNoThreads) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.AddGraph("g", BoundedThreadsGraph()).ok());
  QueryExecutorOptions options;
  options.num_threads = 2;
  options.stream_chunk_results = 1;  // deliver mid-run, result by result.
  QueryExecutor executor(catalog, options);

  QueryRequest request;
  request.graph = "g";
  request.params = {2, 2, 1, 0.0};
  request.use_cache = false;  // both runs execute.
  request.options.num_threads = kWideQuery;
  auto run = [&](PeakThreads* peak) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    QueryResult result;
    executor.ExecuteStreaming(
        request,
        [peak](const StreamChunk&) {
          if (peak != nullptr) peak->Sample();
        },
        [&](QueryResult r) {
          std::lock_guard<std::mutex> lock(mu);
          result = std::move(r);
          done = true;
          cv.notify_all();
        });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
    return result;
  };
  const QueryResult warm = run(nullptr);
  ASSERT_TRUE(warm.status.ok());
  ASSERT_GT(warm.summary.count, 0u);
  const std::size_t baseline = CountThreads();

  PeakThreads peak;
  const QueryResult result = run(&peak);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.summary.digest, warm.summary.digest);
  ASSERT_GT(peak.samples, 0u);
  EXPECT_LE(peak.peak, baseline);
}

}  // namespace
}  // namespace fairbc
