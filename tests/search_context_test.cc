// Candidate counts of the branch-and-bound engines
// (SearchContext::OpenBranch). Root counts (CountRootWedges): for every
// root x and every lower v the wedge pass must count |N(v) ∩ N(x)|, on
// graphs as generated (no reduction, so isolated vertices are present),
// across many consecutive roots on one context (the touched-list reset),
// and the shared candidate filter must split the same way from root
// counts as from a probed bitmap. Row masks below a root of at most 64
// neighbors must give the intersections and counts the probe gives, for
// any L inside the root's neighborhood, at the word-width boundary, and
// on split children whose lane last counted another root. Also pins how
// the root arrays enter peak_struct_bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/mbea.h"
#include "core/search_context.h"
#include "graph/generators.h"
#include "test_util.h"

namespace fairbc {
namespace {

using ::fairbc::testing::Canonicalize;
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
      EXPECT_EQ(at_root->counts.source(), CountSource::kRoot);
      // L = U(G) holds an upper vertex outside N(x) unless x sees them all.
      EXPECT_EQ(below->counts.source(), x_nbrs.size() < g.NumUpper()
                                            ? CountSource::kProbe
                                            : CountSource::kRows)
          << label;
      EXPECT_TRUE(std::ranges::equal(at_root->upper, x_nbrs)) << label;
      EXPECT_TRUE(std::ranges::equal(below->upper, x_nbrs)) << label;
      const auto too_many = static_cast<std::uint32_t>(x_nbrs.size() + 1);
      EXPECT_FALSE(ctx.OpenBranch(all_upper, {}, x, too_many)) << label;
      const CandidateCounts& root = at_root->counts;
      const CandidateCounts& probe = below->counts;
      for (VertexId v : candidates) {
        ASSERT_EQ(probe.Count(v), root.Count(v)) << label << " vertex " << v;
      }
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

std::vector<VertexId> Intersection(std::span<const VertexId> a,
                                   std::span<const VertexId> b) {
  std::vector<VertexId> out(std::min(a.size(), b.size()));
  out.resize(IntersectInto(out.data(), a, b));
  return out;
}

// Opens the branch on x at a node below root y (R = {y}, L = `big_l` ⊆
// N(y)) and checks it against plain intersections: L' = L ∩ N(x)
// ascending, Count(v) = |N(v) ∩ L'| and CountInL = |N(v) ∩ L| for every
// lower v, with the counts from `source`.
void ExpectBranchMatchesIntersections(SearchContext& ctx,
                                      std::span<const VertexId> big_l,
                                      VertexId y, VertexId x,
                                      CountSource source,
                                      const std::string& label) {
  const BipartiteGraph& g = ctx.graph();
  ArenaScope frame(ctx.arena());
  const VertexId r[] = {y};
  const std::optional<BranchCounts> branch = ctx.OpenBranch(big_l, r, x, 1);
  const std::vector<VertexId> new_l =
      Intersection(big_l, g.Neighbors(Side::kLower, x));
  ASSERT_EQ(branch.has_value(), !new_l.empty()) << label;
  if (!branch) return;
  EXPECT_EQ(branch->counts.source(), source) << label;
  EXPECT_TRUE(std::ranges::equal(branch->upper, new_l)) << label;
  for (VertexId v = 0; v < g.NumLower(); ++v) {
    const auto v_nbrs = g.Neighbors(Side::kLower, v);
    ASSERT_EQ(branch->counts.Count(v), IntersectSize(v_nbrs, new_l))
        << label << " vertex " << v;
    ASSERT_EQ(ctx.CountInL(*branch, big_l, v), IntersectSize(v_nbrs, big_l))
        << label << " vertex " << v;
  }
}

// Below every narrow root y, any L ⊆ N(y) — N(y) itself, each singleton,
// random subsets — opens from row masks for a branch on y and on other
// lower vertices, and matches the intersections. A context that has not
// counted a root yet takes the probe.
TEST(RowCounts, EqualIntersectionsForSubsetsOfEveryNarrowRoot) {
  int narrow_roots = 0;
  for (const auto& [label, g] : TestGraphs()) {
    EnumOptions options;
    SearchBudget budget(options);
    SearchContext ctx(g, options, nullptr, budget, kDiscard, 0);
    Rng rng(5);
    for (VertexId y = 0; y < g.NumLower(); ++y) {
      const auto y_nbrs = g.Neighbors(Side::kLower, y);
      if (y_nbrs.empty() || y_nbrs.size() > 64) continue;
      if (narrow_roots++ == 0) {
        ExpectBranchMatchesIntersections(ctx, y_nbrs, y, y,
                                         CountSource::kProbe, label);
      }
      ctx.CountRootWedges(y);
      std::vector<std::vector<VertexId>> subsets = {
          {y_nbrs.begin(), y_nbrs.end()}};
      for (VertexId u : y_nbrs) subsets.push_back({u});
      for (int i = 0; i < 4; ++i) {
        std::vector<VertexId> subset;
        for (VertexId u : y_nbrs) {
          if (rng.NextBool(0.5)) subset.push_back(u);
        }
        if (!subset.empty()) subsets.push_back(std::move(subset));
      }
      const VertexId xs[] = {
          y, static_cast<VertexId>(rng.NextUInt64(g.NumLower())),
          static_cast<VertexId>(rng.NextUInt64(g.NumLower()))};
      for (const std::vector<VertexId>& big_l : subsets) {
        for (VertexId x : xs) {
          ExpectBranchMatchesIntersections(
              ctx, big_l, y, x, CountSource::kRows,
              label + " root " + std::to_string(y) + " x " +
                  std::to_string(x));
        }
      }
    }
  }
  EXPECT_GT(narrow_roots, 100);
}

// Lower 0, 1 and 2 see uppers 0..62, 0..63 and 0..64 (degree 63, 64 and
// 65); the other lower vertices see random uppers among 70.
BipartiteGraph WordWidthGraph() {
  const VertexId nu = 70;
  const VertexId nl = 30;
  Rng rng(11);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 0; v < 3; ++v) {
    for (VertexId u = 0; u < 63 + v; ++u) edges.emplace_back(u, v);
  }
  for (VertexId v = 3; v < nl; ++v) {
    for (VertexId u = 0; u < nu; ++u) {
      if (rng.NextBool(0.5)) edges.emplace_back(u, v);
    }
  }
  std::vector<AttrId> lower_attrs(nl);
  for (VertexId v = 0; v < nl; ++v) lower_attrs[v] = v % 2;
  return MakeGraph(nu, nl, edges, std::vector<AttrId>(nu, 0), lower_attrs);
}

// FilterCandidates' loop with counts from IntersectSize: the oracle for
// every count source.
std::tuple<bool, std::vector<VertexId>, std::vector<VertexId>> ExpectedSplit(
    const BipartiteGraph& g, std::span<const VertexId> candidates,
    std::span<const VertexId> new_l, std::uint32_t threshold,
    FullCandidates mode) {
  std::vector<VertexId> kept;
  std::vector<VertexId> full;
  for (VertexId v : candidates) {
    const std::uint32_t c = IntersectSize(g.Neighbors(Side::kLower, v), new_l);
    if (c == new_l.size()) {
      if (mode == FullCandidates::kStop) return {false, kept, full};
      full.push_back(v);
      if (mode == FullCandidates::kSeparate) continue;
    }
    if (c >= threshold) kept.push_back(v);
  }
  return {true, kept, full};
}

// At the word width: below the 64-wide root the masks are full words
// (bit 63 set), below the 65-wide root the probe stays, and both split
// every candidate list like the oracle. Roots run 1, 2, 0, 1 on one
// context: the wide root must clear the 64-wide root's slots (a prefix
// of N(2) also lies in N(1)), and the rows it leaves must be all zero.
TEST(RowCounts, WordWidthBoundary) {
  const BipartiteGraph g = WordWidthGraph();
  EnumOptions options;
  SearchBudget budget(options);
  SearchContext ctx(g, options, nullptr, budget, kDiscard, 0);
  const std::vector<VertexId> all_upper = AllVertices(g, Side::kUpper);
  const std::vector<VertexId> candidates = AllVertices(g, Side::kLower);
  const std::pair<VertexId, CountSource> roots[] = {
      {1, CountSource::kRows},
      {2, CountSource::kProbe},
      {0, CountSource::kRows},
      {1, CountSource::kRows}};
  for (const auto& [y, source] : roots) {
    const std::string label = "root " + std::to_string(y);
    ArenaScope frame(ctx.arena());
    ASSERT_TRUE(ctx.OpenBranch(all_upper, {}, y, 1)) << label;
    const auto y_nbrs = g.Neighbors(Side::kLower, y);
    ASSERT_EQ(y_nbrs.size(), 63u + y);
    if (y == 2) {
      const std::span<const VertexId> prefix = y_nbrs.first(10);
      ExpectBranchMatchesIntersections(ctx, prefix, y, 1, CountSource::kProbe,
                                       label + " prefix");
    }
    if (y == 0) {
      // Upper 63 lies in N(1) but not in N(0), and root 1 gave it slot 63.
      const std::span<const VertexId> tail =
          g.Neighbors(Side::kLower, 1).last(10);
      ExpectBranchMatchesIntersections(ctx, tail, y, 1, CountSource::kProbe,
                                       label + " tail of N(1)");
    }
    const VertexId r[] = {y};
    for (VertexId x : candidates) {
      ExpectBranchMatchesIntersections(ctx, y_nbrs, y, x, source,
                                       label + " x " + std::to_string(x));
      ArenaScope branch_frame(ctx.arena());
      const std::optional<BranchCounts> branch =
          ctx.OpenBranch(y_nbrs, r, x, 1);
      if (!branch) continue;
      if (source == CountSource::kRows) {
        EXPECT_EQ(branch->l_mask, y_nbrs.size() == 64
                                      ? ~std::uint64_t{0}
                                      : (std::uint64_t{1} << y_nbrs.size()) - 1)
            << label;
      }
      for (FullCandidates mode :
           {FullCandidates::kKeep, FullCandidates::kSeparate,
            FullCandidates::kStop}) {
        for (std::uint32_t threshold : {1u, 40u}) {
          IdVec kept(ctx.arena(), candidates.size());
          IdVec full(ctx.arena(), candidates.size());
          const bool done = FilterCandidates(candidates, branch->counts,
                                             threshold, mode, &kept, &full);
          EXPECT_EQ(std::tuple(done,
                               std::vector<VertexId>(kept.begin(), kept.end()),
                               std::vector<VertexId>(full.begin(), full.end())),
                    ExpectedSplit(g, candidates, branch->upper, threshold,
                                  mode))
              << label << " x " << x;
        }
      }
    }
  }
  // Lower 1 sees upper 63: the 64-wide root decodes bit 63.
  ArenaScope frame(ctx.arena());
  const VertexId r[] = {1};
  const std::optional<BranchCounts> branch =
      ctx.OpenBranch(g.Neighbors(Side::kLower, 1), r, 1, 1);
  ASSERT_TRUE(branch);
  EXPECT_EQ(branch->counts.source(), CountSource::kRows);
  EXPECT_EQ(branch->upper.back(), 63u);
}

// A minimal iMBEA (every maximal biclique, no exhausted-candidate skip)
// written against SearchContext alone, so that a test sees which count
// source each branch reads. R keeps the subtree's root first; an
// emission sorts a copy.
class TestMbea {
 public:
  explicit TestMbea(SearchContext& ctx) : ctx_(ctx) {}

  void Recurse(std::span<const VertexId> big_l, std::span<const VertexId> r,
               std::span<const VertexId> p, std::span<const VertexId> q_in) {
    ArenaScope frame(ctx_.arena());
    IdVec q(ctx_.arena(), q_in.size() + p.size());
    for (VertexId v : q_in) q.push_back(v);
    for (std::size_t i = 0; i < p.size(); ++i) {
      Branch(big_l, r, p.subspan(i), q.view());
      q.push_back(p[i]);
    }
  }

  // The branch on p[0] and its subtree; returns the branch's count
  // source, nullopt when L' is empty.
  std::optional<CountSource> Branch(std::span<const VertexId> big_l,
                                    std::span<const VertexId> r,
                                    std::span<const VertexId> p,
                                    std::span<const VertexId> q) {
    ctx_.CountNode();
    ScratchArena& arena = ctx_.arena();
    ArenaScope frame(arena);
    const VertexId x = p.front();
    const std::optional<BranchCounts> branch = ctx_.OpenBranch(big_l, r, x, 1);
    if (!branch) return std::nullopt;
    const CountSource source = branch->counts.source();
    IdVec new_q(arena, q.size());
    if (!FilterCandidates(q, branch->counts, 1, FullCandidates::kStop, &new_q,
                          nullptr)) {
      return source;
    }
    IdVec new_p(arena, p.size() - 1);
    IdVec absorbed(arena, p.size() - 1);
    FilterCandidates(p.subspan(1), branch->counts, 1,
                     FullCandidates::kSeparate, &new_p, &absorbed);
    IdVec new_r(arena, r.size() + p.size());
    for (VertexId v : r) new_r.push_back(v);
    new_r.push_back(x);
    for (VertexId v : absorbed) new_r.push_back(v);
    IdVec sorted(arena, new_r.size());
    for (VertexId v : new_r) sorted.push_back(v);
    std::sort(sorted.begin(), sorted.end());
    ctx_.Emit(branch->upper, sorted.view());
    if (!new_p.empty() && !ctx_.TrySplit(branch->upper, new_r.view(),
                                         new_p.view(), new_q.view())) {
      Recurse(branch->upper, new_r.view(), new_p.view(), new_q.view());
    }
    return source;
  }

 private:
  SearchContext& ctx_;
};

// Random lower vertices 0..23 over 32 uppers, then lower 24 adjacent to
// every upper.
constexpr VertexId kUniversal = 24;

BipartiteGraph UniversalTailGraph() {
  const VertexId nu = 32;
  const VertexId nl = kUniversal + 1;
  Rng rng(21);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 0; v < nl; ++v) {
    for (VertexId u = 0; u < nu; ++u) {
      if (v == kUniversal || rng.NextBool(0.5)) edges.emplace_back(u, v);
    }
  }
  return MakeGraph(nu, nl, edges, std::vector<AttrId>(nu, 0),
                   std::vector<AttrId>(nl, 0));
}

// Split children run on whichever lane is free, whose rows belong to the
// last root that lane counted: when the child's L lies inside that
// root's neighborhood the child reads those rows, else it probes. Every
// other child first counts the universal vertex on its lane, a root that
// is not its own (in id order the universal root comes last and has no
// children) and whose neighborhood holds every L, so that child must
// read rows; the rest run on the lane as they find it. At 4 threads the
// result set must equal the serial run's and MBEA's.
TEST(RowCounts, SplitChildrenOnOtherLanesMatchSerial) {
  const BipartiteGraph g = UniversalTailGraph();

  struct Run {
    std::mutex mu;
    std::vector<Biclique> results;
    int forced_children = 0;
    int forced_rows = 0;

    EngineSink Sink() {
      return [this](const EmitWorker&, std::span<const VertexId> upper,
                    std::span<const VertexId> lower) {
        std::lock_guard<std::mutex> lock(mu);
        results.push_back(
            {{upper.begin(), upper.end()}, {lower.begin(), lower.end()}});
        return true;
      };
    }
  };
  auto run_search = [&g](Run& run, unsigned threads) {
    SearchTasks tasks;
    tasks.serial = [](SearchContext& ctx, std::span<const VertexId> upper_all,
                      std::span<const VertexId> candidates) {
      TestMbea(ctx).Recurse(upper_all, {}, candidates, {});
    };
    tasks.branch = [&run](SearchContext& ctx, std::span<const VertexId> big_l,
                          std::span<const VertexId> r,
                          std::span<const VertexId> p,
                          std::span<const VertexId> q) {
      // Split children of one node have distinct |p|.
      const bool forced = !r.empty() && p.size() % 2 == 0;
      if (forced) ctx.CountRootWedges(kUniversal);
      const std::optional<CountSource> source =
          TestMbea(ctx).Branch(big_l, r, p, q);
      if (forced) {
        std::lock_guard<std::mutex> lock(run.mu);
        ++run.forced_children;
        if (source == CountSource::kRows) ++run.forced_rows;
      }
    };
    EnumOptions options;
    options.num_threads = threads;
    options.ordering = VertexOrdering::kId;
    return RunSearch(g, options, nullptr, run.Sink(), tasks);
  };

  Run serial;
  run_search(serial, 1);
  Run mbea;
  EnumerateMaximalBicliques(g, 1, 1, 0, EnumOptions(), mbea.Sink());
  const std::vector<Biclique> expected = Canonicalize(serial.results);
  ASSERT_EQ(expected, Canonicalize(mbea.results));
  ASSERT_GT(expected.size(), 100u);

  // Whether and where a root task splits is up to the scheduler: repeat
  // until some split child was forced onto another root's rows.
  int forced_children = 0;
  for (int attempt = 0; attempt < 20 && forced_children == 0; ++attempt) {
    Run parallel;
    run_search(parallel, 4);
    ASSERT_EQ(Canonicalize(parallel.results), expected) << "attempt " << attempt;
    // A child's p[0] survived its parent's filter, so its L' is nonempty.
    EXPECT_EQ(parallel.forced_rows, parallel.forced_children);
    forced_children += parallel.forced_children;
  }
  EXPECT_GT(forced_children, 0);
}

// The root arrays are part of the search's scratch: a run that only
// counts one root reports exactly their bytes (the arena stays unused):
// counts and touched ids (4 bytes each) and rows (8) per lower vertex,
// one slot byte per upper vertex.
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
            16 * std::size_t{g.NumLower()} + g.NumUpper());
}

}  // namespace
}  // namespace fairbc
