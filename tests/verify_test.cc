#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/verify.h"
#include "test_util.h"

namespace fairbc {
namespace {

using ::fairbc::testing::MakeGraph;
using ::fairbc::testing::RandomSmallGraph;

TEST(Verify, AcceptsAllEnumeratedSsfbc) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 9, 0.5);
    FairBicliqueParams params{2, 1, 1, 0.0};
    CollectSink sink;
    RunEnumeration(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params, {},
                   sink.AsSink());
    EXPECT_TRUE(
        VerifyResultSet(g, sink.results(), params, FairModel::kSsfbc).ok())
        << "seed=" << seed;
  }
}

TEST(Verify, AcceptsAllEnumeratedBsfbc) {
  for (std::uint64_t seed = 30; seed < 45; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 7, 0.55);
    FairBicliqueParams params{1, 1, 1, 0.0};
    CollectSink sink;
    RunEnumeration(g, FairModel::kBsfbc, FairAlgo::kPlusPlus, params, {},
                   sink.AsSink());
    EXPECT_TRUE(
        VerifyResultSet(g, sink.results(), params, FairModel::kBsfbc).ok())
        << "seed=" << seed;
  }
}

TEST(Verify, AcceptsProportionalResults) {
  for (std::uint64_t seed = 50; seed < 60; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 8, 0.5);
    FairBicliqueParams params{1, 1, 2, 0.4};
    CollectSink sink;
    RunEnumeration(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params, {},
                   sink.AsSink());
    EXPECT_TRUE(
        VerifyResultSet(g, sink.results(), params, FairModel::kSsfbc).ok())
        << "seed=" << seed;
  }
}

TEST(Verify, RejectsNonBiclique) {
  BipartiteGraph g = MakeGraph(2, 2, {{0, 0}, {0, 1}, {1, 0}}, {0, 1}, {0, 1});
  FairBicliqueParams params{1, 1, 1, 0.0};
  // (u0,u1) x (v0,v1) is missing edge (1,1).
  Biclique bad{{0, 1}, {0, 1}};
  Status st = VerifyFairBiclique(g, bad, params, FairModel::kSsfbc);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("not a biclique"), std::string::npos);
}

TEST(Verify, RejectsEmptySide) {
  BipartiteGraph g = MakeGraph(2, 2, {{0, 0}}, {0, 1}, {0, 1});
  FairBicliqueParams params{1, 1, 1, 0.0};
  Biclique bad{{}, {0}};
  EXPECT_FALSE(
      VerifyFairBiclique(g, bad, params, FairModel::kSsfbc).ok());
}

TEST(Verify, RejectsOutOfRangeAndDuplicates) {
  BipartiteGraph g = MakeGraph(2, 2, {{0, 0}, {1, 1}}, {0, 1}, {0, 1});
  FairBicliqueParams params{1, 1, 1, 0.0};
  Biclique oob{{5}, {0}};
  EXPECT_FALSE(VerifyFairBiclique(g, oob, params, FairModel::kSsfbc).ok());
  Biclique dup{{0, 0}, {0}};
  EXPECT_FALSE(VerifyFairBiclique(g, dup, params, FairModel::kSsfbc).ok());
}

TEST(Verify, RejectsNonMaximalSubset) {
  // Complete 2x4 with balanced classes; dropping one vertex from the
  // full fair lower side leaves a fairly-extendable set.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 2; ++u) {
    for (VertexId v = 0; v < 4; ++v) edges.emplace_back(u, v);
  }
  BipartiteGraph g = MakeGraph(2, 4, edges, {0, 1}, {0, 1, 0, 1});
  FairBicliqueParams params{1, 1, 1, 0.0};
  Biclique full{{0, 1}, {0, 1, 2, 3}};
  EXPECT_TRUE(VerifyFairBiclique(g, full, params, FairModel::kSsfbc).ok());
  Biclique partial{{0, 1}, {0, 1, 2}};
  Status st = VerifyFairBiclique(g, partial, params, FairModel::kSsfbc);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("not maximal"), std::string::npos);
}

TEST(Verify, RejectsShrunkUpperSide) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 3; ++u) {
    for (VertexId v = 0; v < 2; ++v) edges.emplace_back(u, v);
  }
  BipartiteGraph g = MakeGraph(3, 2, edges, {0, 1, 0}, {0, 1});
  FairBicliqueParams params{1, 1, 1, 0.0};
  // The common neighborhood of {v0,v1} is all three uppers.
  Biclique shrunk{{0, 1}, {0, 1}};
  Status st = VerifyFairBiclique(g, shrunk, params, FairModel::kSsfbc);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("common neighborhood"), std::string::npos);
}

TEST(Verify, RejectsUnfairUpperSideForBsfbc) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 2; ++u) {
    for (VertexId v = 0; v < 2; ++v) edges.emplace_back(u, v);
  }
  BipartiteGraph g = MakeGraph(2, 2, edges, {0, 0}, {0, 1});
  FairBicliqueParams params{1, 1, 0, 0.0};
  Biclique b{{0, 1}, {0, 1}};
  Status st = VerifyFairBiclique(g, b, params, FairModel::kBsfbc);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("upper side is not a fair set"),
            std::string::npos);
}

TEST(Verify, ResultSetDetectsDuplicates) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 2; ++u) {
    for (VertexId v = 0; v < 2; ++v) edges.emplace_back(u, v);
  }
  BipartiteGraph g = MakeGraph(2, 2, edges, {0, 1}, {0, 1});
  FairBicliqueParams params{1, 1, 0, 0.0};
  Biclique b{{0, 1}, {0, 1}};
  Status st = VerifyResultSet(g, {b, b}, params, FairModel::kSsfbc);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("duplicate"), std::string::npos);
}

}  // namespace
}  // namespace fairbc
