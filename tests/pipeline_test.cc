#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "core/pipeline.h"
#include "graph/generators.h"
#include "test_util.h"

namespace fairbc {
namespace {

using ::fairbc::testing::Canonicalize;
using ::fairbc::testing::RandomSmallGraph;

TEST(Pipeline, StatsSplitPruneAndEnumTime) {
  BipartiteGraph g = MakeUniformRandom(300, 300, 2500, 2, 5);
  FairBicliqueParams params{2, 2, 1, 0.0};
  CountSink sink;
  EnumStats stats = RunEnumeration(g, FairModel::kSsfbc, FairAlgo::kPlusPlus,
                                   params, {}, sink.AsSink());
  EXPECT_GE(stats.prune_seconds, 0.0);
  EXPECT_GE(stats.enum_seconds, 0.0);
  EXPECT_LE(stats.remaining_upper, g.NumUpper());
}

TEST(Pipeline, MemoryMeterPopulatedWithColorfulPruning) {
  AffiliationConfig config;
  config.num_upper = 150;
  config.num_lower = 150;
  config.num_communities = 12;
  config.seed = 31;
  BipartiteGraph g = MakeAffiliation(config);
  FairBicliqueParams params{2, 2, 1, 0.0};
  CountSink sink;
  EnumStats stats = RunEnumeration(g, FairModel::kSsfbc, FairAlgo::kPlusPlus,
                                   params, {}, sink.AsSink());
  // The CFCore 2-hop graph + color matrices must be accounted.
  EXPECT_GT(stats.peak_struct_bytes, 0u);
}

TEST(Pipeline, MaximalBicliquesPruned) {
  BipartiteGraph g = RandomSmallGraph(17, 10, 0.5);
  CollectSink sink;
  EnumStats stats =
      EnumerateMaximalBicliquesPruned(g, 2, 2, {}, sink.AsSink());
  EXPECT_EQ(stats.num_results, sink.results().size());
  for (const Biclique& b : sink.results()) {
    EXPECT_GE(b.upper.size(), 2u);
    EXPECT_GE(b.lower.size(), 2u);
    for (VertexId u : b.upper) {
      for (VertexId v : b.lower) EXPECT_TRUE(g.HasEdge(u, v));
    }
  }
}

TEST(Pipeline, TimeBudgetPropagates) {
  BipartiteGraph g = MakeUniformRandom(500, 500, 20000, 2, 9);
  FairBicliqueParams params{1, 1, 3, 0.0};
  EnumOptions options;
  options.time_budget_seconds = 1e-6;
  CountSink sink;
  EnumStats stats = RunEnumeration(g, FairModel::kSsfbc, FairAlgo::kNaive,
                                   params, options, sink.AsSink());
  EXPECT_TRUE(stats.budget_exhausted);
}

TEST(Pipeline, SinkAbortIsHonored) {
  BipartiteGraph g = RandomSmallGraph(23, 12, 0.5);
  FairBicliqueParams params{1, 1, 2, 0.0};
  std::uint64_t seen = 0;
  RunEnumeration(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params, {},
                 [&](const Biclique&) {
                   ++seen;
                   return false;
                 });
  EXPECT_LE(seen, 1u);
}

TEST(Pipeline, OrderingsAgreeOnResultSet) {
  BipartiteGraph g = MakeUniformRandom(120, 120, 1200, 2, 41);
  FairBicliqueParams params{2, 2, 1, 0.0};
  EnumOptions id_ord, deg_ord;
  id_ord.ordering = VertexOrdering::kId;
  deg_ord.ordering = VertexOrdering::kDegreeDesc;
  CollectSink a, b;
  RunEnumeration(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params, id_ord,
                 a.AsSink());
  RunEnumeration(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params, deg_ord,
                 b.AsSink());
  EXPECT_EQ(Canonicalize(a.results()), Canonicalize(b.results()));
}

// Golden serial counters: every (model, algo) case of RunEnumeration and
// plain MBC at num_threads = 1 on seeded generator graphs, pinned to the
// values the engines produced before their run drivers were merged into
// one. Refactors of the search layer must leave the serial traversal
// alone: the same nodes, the same results, the same maximal bicliques, in
// the same emission order (`order_digest`, an FNV-1a hash of the emitted
// id sequence). The engines agree on result sets, so only search_nodes
// and maximal_bicliques_visited catch a case wired to the wrong engine.
struct GoldenCounters {
  std::string_view graph;
  std::string_view entry;
  std::uint64_t search_nodes;
  std::uint64_t num_results;
  std::uint64_t maximal_bicliques_visited;
  std::uint64_t order_digest;
};

BipartiteGraph GoldenGraph(std::string_view name) {
  if (name == "random7") return RandomSmallGraph(7, 16, 0.5);
  if (name == "random11") return RandomSmallGraph(11, 24, 0.4);
  AffiliationConfig config;
  config.num_upper = 80;
  config.num_lower = 80;
  config.num_communities = 8;
  config.community_upper_max = 7;
  config.community_lower_max = 7;
  config.seed = 31;
  return MakeAffiliation(config);
}

// The fair entries by name, as (model, algo) rows of RunEnumeration.
struct GoldenFairEntry {
  std::string_view name;
  FairModel model;
  FairAlgo algo;
};

constexpr GoldenFairEntry kGoldenFairEntries[] = {
    {"SSFBC", FairModel::kSsfbc, FairAlgo::kBcem},
    {"SSFBC++", FairModel::kSsfbc, FairAlgo::kPlusPlus},
    {"NSF", FairModel::kSsfbc, FairAlgo::kNaive},
    {"BSFBC", FairModel::kBsfbc, FairAlgo::kBcem},
    {"BSFBC++", FairModel::kBsfbc, FairAlgo::kPlusPlus},
    {"BNSF", FairModel::kBsfbc, FairAlgo::kNaive},
};

EnumStats RunGoldenEntry(std::string_view entry, const BipartiteGraph& g,
                         const BicliqueSink& sink) {
  // Bi-side models ask for alpha per upper class, hence the smaller alpha.
  const FairBicliqueParams params{2, 2, 1, 0.0};
  const FairBicliqueParams bi_params{1, 2, 1, 0.0};
  EnumOptions options;
  options.num_threads = 1;
  for (const GoldenFairEntry& fair : kGoldenFairEntries) {
    if (fair.name != entry) continue;
    return RunEnumeration(g, fair.model, fair.algo,
                          fair.model == FairModel::kBsfbc ? bi_params : params,
                          options, sink);
  }
  return EnumerateMaximalBicliquesPruned(g, 2, 2, options, sink);
}

TEST(Pipeline, GoldenSerialCounters) {
  static constexpr GoldenCounters kGolden[] = {
      {"random7", "SSFBC", 465, 45, 0, 11242145125337691970ull},
      {"random7", "SSFBC++", 205, 45, 14, 4764842628917310432ull},
      {"random7", "NSF", 3493, 45, 0, 11242145125337691970ull},
      {"random7", "BSFBC", 197, 19, 0, 14559432779199397772ull},
      {"random7", "BSFBC++", 26, 19, 8, 15977028598467007946ull},
      {"random7", "BNSF", 988, 19, 0, 14559432779199397772ull},
      {"random7", "MBC", 478, 127, 127, 4040305554376135573ull},
      {"random11", "SSFBC", 311, 16, 0, 15033688772769608286ull},
      {"random11", "SSFBC++", 45, 16, 7, 3735018734184983012ull},
      {"random11", "NSF", 4171, 16, 0, 15033688772769608286ull},
      {"random11", "BSFBC", 18, 2, 0, 16907490666053421234ull},
      {"random11", "BSFBC++", 6, 2, 2, 16907490666053421234ull},
      {"random11", "BNSF", 63, 2, 0, 16907490666053421234ull},
      {"random11", "MBC", 52, 16, 16, 18331351654640868214ull},
      {"affiliation", "SSFBC", 1394, 51, 0, 8950343517017678338ull},
      {"affiliation", "SSFBC++", 356, 51, 30, 2168953300424831852ull},
      {"affiliation", "NSF", 570891, 51, 0, 8950343517017678338ull},
      {"affiliation", "BSFBC", 1343, 45, 0, 4006625783920199835ull},
      {"affiliation", "BSFBC++", 243, 45, 24, 12827717055722749417ull},
      {"affiliation", "BNSF", 562035, 45, 0, 4006625783920199835ull},
      {"affiliation", "MBC", 395, 77, 77, 1763829596117506057ull},
  };
  for (const GoldenCounters& want : kGolden) {
    SCOPED_TRACE(::testing::Message() << want.graph << " " << want.entry);
    const BipartiteGraph g = GoldenGraph(want.graph);
    std::uint64_t digest = 14695981039346656037ull;
    auto mix = [&](std::uint64_t x) {
      digest = (digest ^ x) * 1099511628211ull;
    };
    std::uint64_t seen = 0;
    const EnumStats stats = RunGoldenEntry(want.entry, g, [&](const Biclique& b) {
      ++seen;
      for (VertexId u : b.upper) mix(u);
      mix(~0ull);
      for (VertexId v : b.lower) mix(v);
      mix(~1ull);
      return true;
    });
    EXPECT_EQ(stats.search_nodes, want.search_nodes);
    EXPECT_EQ(stats.num_results, want.num_results);
    EXPECT_EQ(seen, want.num_results);
    EXPECT_EQ(stats.maximal_bicliques_visited, want.maximal_bicliques_visited);
    EXPECT_EQ(digest, want.order_digest);
    EXPECT_EQ(stats.split_subtrees, 0u);
    EXPECT_FALSE(stats.budget_exhausted);
  }
}

}  // namespace
}  // namespace fairbc
