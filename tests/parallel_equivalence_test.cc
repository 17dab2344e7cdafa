// Serial-vs-parallel equivalence of the enumeration engines: for every
// engine and every num_threads in {1, 2, 8} the canonicalized result set
// must be identical (the root-level fan-out partitions the search tree,
// it must never change what is found). 8 threads on small graphs also
// exercises the "more workers than root branches" and work-stealing
// paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "core/pipeline.h"
#include "graph/generators.h"
#include "test_util.h"

namespace fairbc {
namespace {

using ::fairbc::testing::Canonicalize;
using ::fairbc::testing::RandomSmallGraph;

// One engine under test: a RunEnumeration (model, algo) row, or, with
// `mbc`, maximal bicliques with |L| >= alpha and |R| >= beta — the MBEA
// engine without a fair-subset pass on top.
struct NamedEngine {
  const char* name;
  FairModel model;
  FairAlgo algo;
  bool mbc = false;
};

EnumStats RunEngine(const NamedEngine& engine, const BipartiteGraph& g,
                    const FairBicliqueParams& params,
                    const EnumOptions& options, const BicliqueSink& sink) {
  if (engine.mbc) {
    return EnumerateMaximalBicliquesPruned(g, params.alpha, params.beta,
                                           options, sink);
  }
  return RunEnumeration(g, engine.model, engine.algo, params, options, sink);
}

// FairBCEM, BFairBCEM, and MBEA under FairBCEM++, BFairBCEM++ and plain
// MBC.
const NamedEngine kEngines[] = {
    {"SSFBC", FairModel::kSsfbc, FairAlgo::kBcem},
    {"SSFBC++", FairModel::kSsfbc, FairAlgo::kPlusPlus},
    {"BSFBC", FairModel::kBsfbc, FairAlgo::kBcem},
    {"BSFBC++", FairModel::kBsfbc, FairAlgo::kPlusPlus},
    {"MBC", FairModel::kSsfbc, FairAlgo::kPlusPlus, /*mbc=*/true},
};

// The NSF/BNSF baselines: FairBCEM at candidate threshold 1 with
// prune_small_l off. Without search pruning they do not finish within
// 5 s on the 120x120 affiliation graphs, so they run on random graphs.
const NamedEngine kBaselineEngines[] = {
    {"NSF", FairModel::kSsfbc, FairAlgo::kNaive},
    {"BNSF", FairModel::kBsfbc, FairAlgo::kNaive},
};

BipartiteGraph AffiliationGraph(std::uint64_t seed) {
  AffiliationConfig config;
  config.num_upper = 120;
  config.num_lower = 120;
  config.num_communities = 8;
  config.seed = seed;
  return MakeAffiliation(config);
}

void ExpectEquivalentAcrossThreads(
    const BipartiteGraph& g, const FairBicliqueParams& params,
    const std::string& label,
    std::span<const NamedEngine> engines = kEngines) {
  for (const NamedEngine& engine : engines) {
    std::vector<Biclique> serial;
    std::uint64_t serial_count = 0;
    for (unsigned threads : {1u, 2u, 8u}) {
      EnumOptions options;
      options.num_threads = threads;
      CollectSink sink;
      EnumStats stats = RunEngine(engine, g, params, options, sink.AsSink());
      std::vector<Biclique> results = Canonicalize(sink.results());
      EXPECT_EQ(stats.num_results, results.size())
          << label << " " << engine.name << " threads=" << threads;
      if (threads == 1) {
        serial = std::move(results);
        serial_count = stats.num_results;
        continue;
      }
      EXPECT_EQ(results, serial)
          << label << " " << engine.name << " threads=" << threads;
      EXPECT_EQ(stats.num_results, serial_count)
          << label << " " << engine.name << " threads=" << threads;
      EXPECT_FALSE(stats.budget_exhausted);
    }
  }
}

TEST(ParallelEquivalence, RandomSmallGraphs) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 10, 0.45);
    ExpectEquivalentAcrossThreads(g, FairBicliqueParams{1, 1, 1, 0.0},
                                  "random seed=" + std::to_string(seed));
    ExpectEquivalentAcrossThreads(g, FairBicliqueParams{1, 1, 1, 0.0},
                                  "random seed=" + std::to_string(seed),
                                  kBaselineEngines);
  }
}

// 40x40 random graphs give the baselines 100k-190k search nodes: enough
// root branches and depth for the 8-lane fan-out to split subtrees.
TEST(ParallelEquivalence, BaselinesOnLargerRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 2; ++seed) {
    BipartiteGraph g = MakeUniformRandom(40, 40, 400, 2, seed);
    ExpectEquivalentAcrossThreads(g, FairBicliqueParams{1, 2, 1, 0.0},
                                  "uniform seed=" + std::to_string(seed),
                                  kBaselineEngines);
  }
}

TEST(ParallelEquivalence, AffiliationGraphs) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    BipartiteGraph g = AffiliationGraph(seed);
    ExpectEquivalentAcrossThreads(g, FairBicliqueParams{2, 2, 1, 0.0},
                                  "affiliation seed=" + std::to_string(seed));
  }
}

TEST(ParallelEquivalence, ProportionalModel) {
  BipartiteGraph g = AffiliationGraph(3);
  ExpectEquivalentAcrossThreads(g, FairBicliqueParams{2, 2, 2, 0.3},
                                "proportional");
}

TEST(ParallelEquivalence, NaiveEnginesToo) {
  BipartiteGraph g = RandomSmallGraph(7, 8, 0.5);
  FairBicliqueParams params{1, 1, 1, 0.0};
  for (FairModel model : {FairModel::kSsfbc, FairModel::kBsfbc}) {
    CollectSink serial_sink;
    RunEnumeration(g, model, FairAlgo::kNaive, params, {},
                   serial_sink.AsSink());
    EnumOptions parallel;
    parallel.num_threads = 4;
    CollectSink parallel_sink;
    RunEnumeration(g, model, FairAlgo::kNaive, params, parallel,
                   parallel_sink.AsSink());
    EXPECT_EQ(Canonicalize(parallel_sink.results()),
              Canonicalize(serial_sink.results()));
  }
}

TEST(ParallelEquivalence, ZeroMeansHardwareConcurrency) {
  BipartiteGraph g = RandomSmallGraph(11, 9, 0.4);
  FairBicliqueParams params{1, 1, 1, 0.0};
  auto serial = testing::Collect(g, FairModel::kSsfbc, FairAlgo::kPlusPlus,
                                 params);
  EnumOptions options;
  options.num_threads = 0;  // auto-detect.
  CollectSink sink;
  RunEnumeration(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params, options,
                 sink.AsSink());
  EXPECT_EQ(Canonicalize(sink.results()), serial);
}

TEST(ParallelEquivalence, NodeBudgetStopsParallelRun) {
  BipartiteGraph g = AffiliationGraph(4);
  FairBicliqueParams params{1, 1, 2, 0.0};
  EnumOptions options;
  options.num_threads = 4;
  options.node_budget = 5;
  CountSink sink;
  EnumStats stats = RunEnumeration(g, FairModel::kSsfbc, FairAlgo::kBcem,
                                   params, options, sink.AsSink());
  EXPECT_TRUE(stats.budget_exhausted);
  // The budget is shared: workers may each account the node that trips
  // the limit, but the overshoot is bounded by the worker count.
  EXPECT_LE(stats.search_nodes, options.node_budget + 4);
}

// Emission-stage contract: the caller's sink is called one result at a
// time, and once it returns false nothing more is delivered — not even
// from the rest of the block or from other workers' blocks. n = 300
// crosses the 256-result block boundary.
TEST(ParallelEquivalence, SinkFalseOnNthCallGetsExactlyNCalls) {
  BipartiteGraph g = AffiliationGraph(6);
  FairBicliqueParams params{2, 2, 1, 0.0};
  for (const NamedEngine& engine : kEngines) {
    for (unsigned threads : {1u, 2u, 8u}) {
      for (std::uint64_t n : {1u, 7u, 300u}) {
        EnumOptions options;
        options.num_threads = threads;
        std::uint64_t calls = 0;  // plain: calls never overlap.
        EnumStats stats =
            RunEngine(engine, g, params, options,
                      [&](const Biclique&) { return ++calls < n; });
        EXPECT_EQ(calls, n) << engine.name << " threads=" << threads;
        EXPECT_GE(stats.num_results, n) << engine.name;
        EXPECT_FALSE(stats.budget_exhausted) << engine.name;
      }
    }
  }
}

// Budget-exhausted runs still flush every partially filled block: the
// caller receives exactly the results the engines counted. The budget is
// half of each engine's full serial search.
TEST(ParallelEquivalence, BudgetExhaustedRunDeliversEveryCountedResult) {
  BipartiteGraph g = AffiliationGraph(6);
  FairBicliqueParams params{2, 2, 1, 0.0};
  for (const NamedEngine& engine : kEngines) {
    CountSink full;
    const EnumStats full_stats =
        RunEngine(engine, g, params, {}, full.AsSink());
    for (unsigned threads : {1u, 2u, 8u}) {
      EnumOptions options;
      options.num_threads = threads;
      options.node_budget = full_stats.search_nodes / 2;
      std::uint64_t calls = 0;
      EnumStats stats =
          RunEngine(engine, g, params, options, [&](const Biclique&) {
            ++calls;
            return true;
          });
      EXPECT_TRUE(stats.budget_exhausted) << engine.name;
      EXPECT_GT(calls, 0u) << engine.name << " threads=" << threads;
      EXPECT_LT(calls, full.count()) << engine.name << " threads=" << threads;
      EXPECT_EQ(calls, stats.num_results)
          << engine.name << " threads=" << threads;
    }
  }
}

TEST(ParallelEquivalence, SinkAbortStopsAllWorkers) {
  BipartiteGraph g = AffiliationGraph(5);
  FairBicliqueParams params{1, 1, 2, 0.0};
  EnumOptions options;
  options.num_threads = 4;
  std::atomic<std::uint64_t> seen{0};
  EnumStats stats = RunEnumeration(
      g, FairModel::kSsfbc, FairAlgo::kBcem, params, options,
      [&](const Biclique&) {
        return seen.fetch_add(1, std::memory_order_relaxed) + 1 < 10;
      });
  EXPECT_FALSE(stats.budget_exhausted);  // abort is not budget exhaustion.
  // Every worker stops promptly after the abort latch; a few in-flight
  // emissions may still land.
  EXPECT_LE(seen.load(), 10u + 4u);
  EXPECT_GE(seen.load(), 10u);
}

}  // namespace
}  // namespace fairbc
