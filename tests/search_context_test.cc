// Root candidate counts of the branch-and-bound engines
// (SearchContext::CountRootWedges): for every root x and every lower v
// the wedge pass must count |N(v) ∩ N(x)|, on graphs as generated (no
// reduction, so isolated vertices are present), across many consecutive
// roots on one context (the touched-list reset), and the shared
// candidate filter must split the same way from root counts as from a
// probed bitmap. Also pins how the count arrays enter peak_struct_bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/search_context.h"
#include "graph/generators.h"
#include "test_util.h"

namespace fairbc {
namespace {

using ::fairbc::testing::MakeGraph;
using ::fairbc::testing::RandomSmallGraph;

const EngineSink kDiscard = [](const EmitWorker&, std::span<const VertexId>,
                               std::span<const VertexId>) { return true; };

BipartiteGraph SmallAffiliation() {
  AffiliationConfig config;
  config.num_upper = 150;
  config.num_lower = 150;
  config.num_communities = 8;
  config.seed = 3;
  return MakeAffiliation(config);
}

// Hub-heavy: upper 0 is adjacent to every lower vertex but the last four
// (isolated), upper 1 to every even one, plus a sparse random rest; the
// last two upper vertices are isolated.
BipartiteGraph StarGraph() {
  const VertexId nu = 40;
  const VertexId nl = 120;
  Rng rng(17);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 0; v + 4 < nl; ++v) {
    edges.emplace_back(0, v);
    if (v % 2 == 0) edges.emplace_back(1, v);
    for (VertexId u = 2; u + 2 < nu; ++u) {
      if (rng.NextBool(0.05)) edges.emplace_back(u, v);
    }
  }
  return MakeGraph(nu, nl, edges, std::vector<AttrId>(nu, 0),
                   std::vector<AttrId>(nl, 1));
}

std::vector<std::pair<std::string, BipartiteGraph>> TestGraphs() {
  std::vector<std::pair<std::string, BipartiteGraph>> graphs;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    graphs.emplace_back("random seed=" + std::to_string(seed),
                        RandomSmallGraph(seed, 30, 0.2));
  }
  graphs.emplace_back("affiliation", SmallAffiliation());
  graphs.emplace_back("star", StarGraph());
  return graphs;
}

bool HasIsolatedLower(const BipartiteGraph& g) {
  for (VertexId v = 0; v < g.NumLower(); ++v) {
    if (g.Degree(Side::kLower, v) == 0) return true;
  }
  return false;
}

TEST(RootCounts, EqualIntersectSizeForEveryRootAndVertex) {
  bool saw_isolated = false;
  for (const auto& [label, g] : TestGraphs()) {
    saw_isolated = saw_isolated || HasIsolatedLower(g);
    EnumOptions options;
    SearchBudget budget(options);
    SearchContext ctx(g, options, nullptr, budget, kDiscard, 0);
    // Every root in id order, then in reverse: each pass must start from
    // the previous pass's reset, whatever it touched.
    std::vector<VertexId> roots;
    for (VertexId x = 0; x < g.NumLower(); ++x) roots.push_back(x);
    for (VertexId x = g.NumLower(); x-- > 0;) roots.push_back(x);
    for (VertexId x : roots) {
      const std::uint32_t* counts = ctx.CountRootWedges(x);
      const auto x_nbrs = g.Neighbors(Side::kLower, x);
      for (VertexId v = 0; v < g.NumLower(); ++v) {
        ASSERT_EQ(counts[v], IntersectSize(g.Neighbors(Side::kLower, v), x_nbrs))
            << label << " root " << x << " vertex " << v;
      }
    }
  }
  EXPECT_TRUE(saw_isolated);
}

TEST(RootCounts, WedgeVisitsAreChargedAsKernelSteps) {
  const BipartiteGraph g = StarGraph();
  EnumOptions options;
  SearchBudget budget(options);
  SearchContext ctx(g, options, nullptr, budget, kDiscard, 0);
  std::uint64_t wedges = 0;
  for (VertexId x = 0; x < g.NumLower(); ++x) {
    for (VertexId u : g.Neighbors(Side::kLower, x)) {
      wedges += g.Degree(Side::kUpper, u);
    }
    ctx.CountRootWedges(x);
  }
  EXPECT_EQ(ctx.stats().kernels.steps, wedges);
  EXPECT_EQ(ctx.stats().kernels.calls, 0u);
}

// The filter loop reads either count source. A branch on x with L = U(G)
// opens from root counts when R is empty and from a probed bitmap when
// it is not; L' is N(x) both ways, so both sources must give the same
// kept/full split, in candidate order, for every mode.
TEST(RootCounts, FilterSplitsAlikeFromRootCountsAndProbes) {
  for (const auto& [label, g] : TestGraphs()) {
    EnumOptions options;
    SearchBudget budget(options);
    SearchContext ctx(g, options, nullptr, budget, kDiscard, 0);
    const std::vector<VertexId> all_upper = AllVertices(g, Side::kUpper);
    std::vector<VertexId> candidates;
    for (VertexId v = 0; v < g.NumLower(); ++v) candidates.push_back(v);
    for (VertexId x = 0; x < g.NumLower(); ++x) {
      const auto x_nbrs = g.Neighbors(Side::kLower, x);
      ArenaScope frame(ctx.arena());
      const VertexId r[] = {x};
      const std::optional<BranchCounts> at_root =
          ctx.OpenBranch(all_upper, {}, x, 1);
      const std::optional<BranchCounts> below =
          ctx.OpenBranch(all_upper, r, x, 1);
      // An isolated x has L' empty, below the minimum of 1.
      ASSERT_EQ(at_root.has_value(), !x_nbrs.empty()) << label;
      ASSERT_EQ(below.has_value(), !x_nbrs.empty()) << label;
      if (x_nbrs.empty()) continue;
      EXPECT_TRUE(at_root->root);
      EXPECT_FALSE(below->root);
      EXPECT_TRUE(std::ranges::equal(at_root->upper, x_nbrs)) << label;
      EXPECT_TRUE(std::ranges::equal(below->upper, x_nbrs)) << label;
      const auto too_many = static_cast<std::uint32_t>(x_nbrs.size() + 1);
      EXPECT_FALSE(ctx.OpenBranch(all_upper, {}, x, too_many)) << label;
      const CandidateCounts& root = at_root->counts;
      const CandidateCounts& probe = below->counts;
      for (FullCandidates mode :
           {FullCandidates::kKeep, FullCandidates::kSeparate,
            FullCandidates::kStop}) {
        for (std::uint32_t threshold : {1u, 2u}) {
          IdVec kept[2] = {IdVec(ctx.arena(), candidates.size()),
                           IdVec(ctx.arena(), candidates.size())};
          IdVec full[2] = {IdVec(ctx.arena(), candidates.size()),
                           IdVec(ctx.arena(), candidates.size())};
          const bool done_root = FilterCandidates(candidates, root, threshold,
                                                  mode, &kept[0], &full[0]);
          const bool done_probe = FilterCandidates(
              candidates, probe, threshold, mode, &kept[1], &full[1]);
          // x itself is fully connected to N(x).
          EXPECT_EQ(done_root, mode != FullCandidates::kStop) << label;
          EXPECT_EQ(done_root, done_probe) << label << " root " << x;
          EXPECT_TRUE(std::ranges::equal(kept[0].view(), kept[1].view()))
              << label << " root " << x;
          EXPECT_TRUE(std::ranges::equal(full[0].view(), full[1].view()))
              << label << " root " << x;
        }
      }
    }
  }
}

// FilterCandidates' three modes on one hand-made count source: L' has
// 2 vertices; candidate counts 2 (full), 1, 0, 2 (full).
TEST(RootCounts, FilterModes) {
  const std::uint32_t counts[] = {2, 1, 0, 2};
  const CandidateCounts source(2, counts);
  const std::vector<VertexId> candidates = {0, 1, 2, 3};
  ScratchArena arena;
  auto run = [&](FullCandidates mode, std::uint32_t threshold) {
    IdVec kept(arena, 4);
    IdVec full(arena, 4);
    const bool done =
        FilterCandidates(candidates, source, threshold, mode, &kept, &full);
    return std::tuple(done, std::vector<VertexId>(kept.begin(), kept.end()),
                      std::vector<VertexId>(full.begin(), full.end()));
  };
  using Ids = std::vector<VertexId>;
  EXPECT_EQ(run(FullCandidates::kKeep, 1), std::tuple(true, Ids{0, 1, 3},
                                                       Ids{0, 3}));
  // A full candidate is kept only when |L'| meets the threshold.
  EXPECT_EQ(run(FullCandidates::kKeep, 3), std::tuple(true, Ids{}, Ids{0, 3}));
  EXPECT_EQ(run(FullCandidates::kSeparate, 1),
            std::tuple(true, Ids{1}, Ids{0, 3}));
  EXPECT_EQ(run(FullCandidates::kStop, 1), std::tuple(false, Ids{}, Ids{}));
}

// The count arrays are part of the search's scratch: a run that only
// counts one root reports exactly their bytes (the arena stays unused).
TEST(RootCounts, PeakStructBytesCountsTheArrays) {
  const BipartiteGraph g = StarGraph();
  SearchTasks tasks;
  tasks.serial = [](SearchContext& ctx, std::span<const VertexId>,
                    std::span<const VertexId> candidates) {
    ctx.CountRootWedges(candidates.front());
  };
  tasks.branch = [](SearchContext&, std::span<const VertexId>,
                    std::span<const VertexId>, std::span<const VertexId>,
                    std::span<const VertexId>) { FAIL(); };
  EnumOptions options;  // num_threads = 1: the serial task.
  const EnumStats stats = RunSearch(g, options, nullptr, kDiscard, tasks);
  EXPECT_EQ(stats.peak_struct_bytes,
            2 * sizeof(std::uint32_t) * std::size_t{g.NumLower()});
}

}  // namespace
}  // namespace fairbc
