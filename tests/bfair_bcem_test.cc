#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "core/bfair_bcem.h"
#include "core/bruteforce.h"
#include "core/pipeline.h"
#include "core/verify.h"
#include "fairness/fair_vector.h"
#include "test_util.h"

namespace fairbc {
namespace {

using ::fairbc::testing::Canonicalize;
using ::fairbc::testing::Collect;
using ::fairbc::testing::MakeGraph;
using ::fairbc::testing::RandomSmallGraph;

TEST(BFairBcem, CompleteBalancedBlock) {
  // Complete 4x4 with balanced attributes on both sides.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = 0; v < 4; ++v) edges.emplace_back(u, v);
  }
  BipartiteGraph g = MakeGraph(4, 4, edges, {0, 0, 1, 1}, {0, 1, 0, 1});
  FairBicliqueParams params{2, 2, 0, 0.0};
  auto results = Collect(g, FairModel::kBsfbc, FairAlgo::kBcem, params);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].upper, (std::vector<VertexId>{0, 1, 2, 3}));
  EXPECT_EQ(results[0].lower, (std::vector<VertexId>{0, 1, 2, 3}));
  EXPECT_EQ(results, Canonicalize(BruteForceBSFBC(g, params)));
}

TEST(BFairBcem, UpperUnfairnessForcesSubsets) {
  // Complete 3x4: upper classes (2,1); alpha=1, delta=0 forces picking
  // one of the two class-0 uppers -> two bi-side fair bicliques.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 3; ++u) {
    for (VertexId v = 0; v < 4; ++v) edges.emplace_back(u, v);
  }
  BipartiteGraph g = MakeGraph(3, 4, edges, {0, 0, 1}, {0, 1, 0, 1});
  FairBicliqueParams params{1, 1, 0, 0.0};
  auto results = Collect(g, FairModel::kBsfbc, FairAlgo::kBcem, params);
  EXPECT_EQ(results.size(), 2u);
  EXPECT_EQ(results, Canonicalize(BruteForceBSFBC(g, params)));
  for (const auto& b : results) {
    EXPECT_EQ(b.upper.size(), 2u);
    EXPECT_EQ(b.lower.size(), 4u);
  }
}

TEST(BFairBcem, BsfbcContainedInSomeSsfbc) {
  // Observation 6: every BSFBC is contained in a single-side fair
  // biclique.
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 7, 0.5);
    FairBicliqueParams params{1, 1, 1, 0.0};
    auto bs = Collect(g, FairModel::kBsfbc, FairAlgo::kPlusPlus, params);
    auto ss = Collect(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params);
    for (const auto& b : bs) {
      bool contained = false;
      for (const auto& s : ss) {
        bool upper_in = std::includes(s.upper.begin(), s.upper.end(),
                                      b.upper.begin(), b.upper.end());
        bool lower_in = std::includes(s.lower.begin(), s.lower.end(),
                                      b.lower.begin(), b.lower.end());
        if (upper_in && lower_in) {
          contained = true;
          break;
        }
      }
      EXPECT_TRUE(contained) << "seed=" << seed << " " << b.DebugString();
    }
  }
}

TEST(BFairBcem, EmittedBsfbcSatisfyDefinition) {
  for (std::uint64_t seed = 40; seed < 50; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 8, 0.5);
    FairBicliqueParams params{1, 1, 1, 0.0};
    CollectSink sink;
    RunEnumeration(g, FairModel::kBsfbc, FairAlgo::kPlusPlus, params, {},
                   sink.AsSink());
    for (const Biclique& b : sink.results()) {
      ASSERT_FALSE(b.upper.empty());
      ASSERT_FALSE(b.lower.empty());
      for (VertexId u : b.upper) {
        for (VertexId v : b.lower) {
          EXPECT_TRUE(g.HasEdge(u, v)) << b.DebugString();
        }
      }
      SizeVector us(g.NumAttrs(Side::kUpper), 0);
      for (VertexId u : b.upper) ++us[g.Attr(Side::kUpper, u)];
      SizeVector ls(g.NumAttrs(Side::kLower), 0);
      for (VertexId v : b.lower) ++ls[g.Attr(Side::kLower, v)];
      EXPECT_TRUE(IsFeasibleVector(us, params.UpperSpec())) << b.DebugString();
      EXPECT_TRUE(IsFeasibleVector(ls, params.LowerSpec())) << b.DebugString();
    }
  }
}

TEST(BFairBcem, NoBsfbcWhenUpperClassMissing) {
  BipartiteGraph g = MakeGraph(2, 2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}},
                               {0, 0}, {0, 1});
  FairBicliqueParams params{1, 1, 1, 0.0};
  EXPECT_TRUE(Collect(g, FairModel::kBsfbc, FairAlgo::kBcem, params).empty());
}

// --- the per-worker upper-walk memo ------------------------------------
//
// FairBCEM++ cuts each maximal biclique into single-side fair bicliques
// that share its upper side, so every one after the first replays the
// memoized upper walk. Each case runs at 1 and 4 threads and checks
// BFairBCEM++ against BFairBCEM (kBcem) and, where the graph is small
// enough, against BruteForceBSFBC.

constexpr unsigned kThreadCounts[] = {1, 4};

std::vector<Biclique> CollectBsfbc(const BipartiteGraph& g, FairAlgo algo,
                                   const FairBicliqueParams& params,
                                   unsigned threads) {
  EnumOptions options;
  options.num_threads = threads;
  return Collect(g, FairModel::kBsfbc, algo, params, options);
}

// A complete block between the given upper and lower vertices plus
// `fringe` extra lower vertices, each adjacent to a seeded random ~2/3 of
// the upper side: the common lower neighborhood then differs between the
// block's upper subsets, so the stored class sizes decide emission.
BipartiteGraph BlockWithFringe(const std::vector<AttrId>& upper_attrs,
                               std::vector<AttrId> lower_attrs,
                               const std::vector<AttrId>& fringe,
                               std::uint64_t seed, AttrId num_attrs) {
  Rng rng(seed);
  const auto nu = static_cast<VertexId>(upper_attrs.size());
  const auto block = static_cast<VertexId>(lower_attrs.size());
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < nu; ++u) {
    for (VertexId v = 0; v < block; ++v) edges.emplace_back(u, v);
  }
  for (std::size_t i = 0; i < fringe.size(); ++i) {
    const auto v = static_cast<VertexId>(block + i);
    for (VertexId u = 0; u < nu; ++u) {
      if (rng.NextBool(0.67)) edges.emplace_back(u, v);
    }
  }
  lower_attrs.insert(lower_attrs.end(), fringe.begin(), fringe.end());
  const auto nv = static_cast<VertexId>(lower_attrs.size());
  return MakeGraph(nu, nv, edges, upper_attrs, lower_attrs, num_attrs,
                   num_attrs);
}

TEST(BFairBcemMemo, SharedUpperSidesReplayTheWalk) {
  // The block's lower side (4,2) has 4 maximal fair subsets for beta=1,
  // delta=1, so its maximal biclique yields 4 single-side fair bicliques
  // over the same upper side (4,2), whose walk has 4 leaves.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    BipartiteGraph g = BlockWithFringe({0, 0, 0, 0, 1, 1}, {0, 0, 0, 0, 1, 1},
                                       {0, 1, 1}, seed, 2);
    const FairBicliqueParams params{1, 1, 1, 0.0};
    const auto oracle = Canonicalize(BruteForceBSFBC(g, params));
    ASSERT_FALSE(oracle.empty()) << "seed=" << seed;
    for (unsigned threads : kThreadCounts) {
      EXPECT_EQ(CollectBsfbc(g, FairAlgo::kPlusPlus, params, threads), oracle)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(CollectBsfbc(g, FairAlgo::kBcem, params, threads), oracle)
          << "seed=" << seed << " threads=" << threads;
    }
  }
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 9, 0.8);
    const FairBicliqueParams params{1, 1, 1, 0.0};
    const auto oracle = Canonicalize(BruteForceBSFBC(g, params));
    for (unsigned threads : kThreadCounts) {
      EXPECT_EQ(CollectBsfbc(g, FairAlgo::kPlusPlus, params, threads), oracle)
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

TEST(BFairBcemMemo, ProportionalThreeClassesHaveSeveralMaximalVectors) {
  const FairBicliqueParams params{1, 1, 2, 0.25};
  // The block's upper side (4,3,2) has two maximal fair vectors, (3,3,2)
  // and (4,2,2), so the walk runs two products one after the other.
  ASSERT_EQ(MaximalFairVectors(SizeVector{4, 3, 2}, params.UpperSpec()).size(),
            2u);
  std::size_t nonempty = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    BipartiteGraph g = BlockWithFringe({0, 0, 0, 0, 1, 1, 1, 2, 2},
                                       {0, 0, 0, 1, 1, 2}, {1, 2}, seed, 3);
    const auto oracle = Canonicalize(BruteForceBSFBC(g, params));
    nonempty += oracle.empty() ? 0 : 1;
    for (unsigned threads : kThreadCounts) {
      EXPECT_EQ(CollectBsfbc(g, FairAlgo::kPlusPlus, params, threads), oracle)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(CollectBsfbc(g, FairAlgo::kBcem, params, threads), oracle)
          << "seed=" << seed << " threads=" << threads;
    }
  }
  EXPECT_GT(nonempty, 0u);
  for (std::uint64_t seed = 200; seed < 215; ++seed) {
    BipartiteGraph g = RandomSmallGraph(seed, 9, 0.85, 3);
    const auto oracle = Canonicalize(BruteForceBSFBC(g, params));
    for (unsigned threads : kThreadCounts) {
      EXPECT_EQ(CollectBsfbc(g, FairAlgo::kPlusPlus, params, threads), oracle)
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

// Upper side L: 17 class-0 and 8 class-1 vertices; S = the first 10
// class-0 ones and all class-1 ones. Lower side: r0..r3 in classes
// (0, 1, 2, 2) adjacent to all of L, and w0, w1 in classes (0, 1)
// adjacent to S only. With alpha = beta = 1 and delta = 0 the maximal
// bicliques are (L, R) and (S, R + w0 + w1). The first yields the two
// single-side fair bicliques (L, {r0, r1, r2|r3}); the walk of L has
// C(17,8) leaves, and a leaf inside S has N∩ = R + w0 + w1, of sizes
// (2,2,2), in which (1,1,1) is not maximal. The second is fair as it is
// and keeps all C(10,8) leaves of S's walk.
BipartiteGraph OverCapGraph() {
  std::vector<AttrId> upper_attrs(25, 0);
  for (VertexId u = 17; u < 25; ++u) upper_attrs[u] = 1;
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 25; ++u) {
    for (VertexId v = 0; v < 4; ++v) edges.emplace_back(u, v);
    if (u < 10 || u >= 17) {
      edges.emplace_back(u, 4);
      edges.emplace_back(u, 5);
    }
  }
  return MakeGraph(25, 6, edges, upper_attrs, {0, 1, 2, 2, 0, 1}, 2, 3);
}

TEST(BFairBcemMemo, WalkPastTheCapFoldsEveryCall) {
  BipartiteGraph g = OverCapGraph();
  const FairBicliqueParams params{1, 1, 0, 0.0};
  // L's walk stores 3 class sizes per leaf: more than the cap holds.
  const std::uint64_t leaves =
      CountMaximalFairSubsets(SizeVector{17, 8}, params.UpperSpec());
  ASSERT_EQ(leaves, 24310u);  // C(17,8)
  ASSERT_GT(leaves * 3, kUpperWalkMemoBytes / sizeof(std::uint32_t));
  const std::uint64_t inside_s = 45;  // C(10,8)
  const std::uint64_t expected = 2 * (leaves - inside_s) + inside_s;

  const auto reference = CollectBsfbc(g, FairAlgo::kBcem, params, 1);
  ASSERT_EQ(reference.size(), expected);
  EXPECT_TRUE(VerifyResultSet(g, reference, params, FairModel::kBsfbc).ok());
  for (unsigned threads : kThreadCounts) {
    EXPECT_EQ(CollectBsfbc(g, FairAlgo::kPlusPlus, params, threads), reference)
        << "threads=" << threads;
  }
  EXPECT_EQ(CollectBsfbc(g, FairAlgo::kBcem, params, 4), reference);
}

TEST(BFairBcemMemo, StoppedRunDeliversExactlyKAndLeavesNoTrace) {
  const FairBicliqueParams cap_params{1, 1, 0, 0.0};
  const FairBicliqueParams block_params{1, 1, 1, 0.0};
  const struct {
    BipartiteGraph g;
    FairBicliqueParams params;
  } cases[] = {
      {BlockWithFringe({0, 0, 0, 0, 1, 1}, {0, 0, 0, 0, 1, 1}, {0, 1, 1}, 3,
                       2),
       block_params},
      {OverCapGraph(), cap_params},
  };
  for (const auto& c : cases) {
    // The serial emission order, in full.
    std::vector<Biclique> serial;
    EnumOptions serial_options;
    serial_options.num_threads = 1;
    RunEnumeration(c.g, FairModel::kBsfbc, FairAlgo::kPlusPlus, c.params,
                   serial_options, [&](const Biclique& b) {
                     serial.push_back(b);
                     return true;
                   });
    const auto full = Canonicalize(serial);
    ASSERT_GT(full.size(), 20u);
    for (unsigned threads : kThreadCounts) {
      for (std::size_t k : {std::size_t{1}, std::size_t{7}, full.size() / 2}) {
        EnumOptions options;
        options.num_threads = threads;
        std::vector<Biclique> received;
        RunEnumeration(c.g, FairModel::kBsfbc, FairAlgo::kPlusPlus, c.params,
                       options, [&](const Biclique& b) {
                         received.push_back(b);
                         return received.size() < k;
                       });
        ASSERT_EQ(received.size(), k) << "threads=" << threads;
        if (threads == 1) {
          EXPECT_TRUE(std::equal(received.begin(), received.end(),
                                 serial.begin()))
              << "k=" << k;
        }
        // A later run on the same graph is whole.
        EXPECT_EQ(CollectBsfbc(c.g, FairAlgo::kPlusPlus, c.params, threads),
                  full)
            << "threads=" << threads << " k=" << k;
      }
    }
  }
}

TEST(BFairBcem, EmptyGraph) {
  BipartiteGraph g;
  FairBicliqueParams params{1, 1, 1, 0.0};
  CountSink sink;
  EnumStats stats = RunEnumeration(g, FairModel::kBsfbc, FairAlgo::kBcem,
                                   params, {}, sink.AsSink());
  EXPECT_EQ(stats.num_results, 0u);
}

}  // namespace
}  // namespace fairbc
