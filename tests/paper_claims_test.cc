// The paper's claims about deterministic counters, asserted on the same
// experiment rows the fairbc_paper tool prints (bench_util/paper.h), at
// StandardDatasets(0.1).
//
// Two kinds of checks:
// - Golden values: dataset sizes, reduction survivors, result counts and
//   search nodes. Serial runs are deterministic, so any change to one of
//   these is a behaviour change of a generator, a reduction or an engine.
// - Proven shapes, which hold on every graph: CFCore <= FCore <= original,
//   equal result counts across engines, pruning levels and search rules
//   (all of them are lossless), counts that do not increase with alpha or
//   beta (a fair biclique at alpha+1 or beta+1 is one at alpha or beta, and
//   stays maximal there), and no search rule that shrinks the search when
//   turned off.
// Times and bytes are not asserted, and neither is any run cut short by
// its time budget.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util/paper.h"

namespace fairbc {
namespace {

using Golden = std::vector<std::vector<std::uint64_t>>;
using Counter = std::uint64_t PaperRun::*;

// Only the naive baselines, which the paper could run almost nowhere, get
// a tight budget; every other run finishes in well under a second.
PaperConfig ClaimsConfig() {
  PaperConfig config;
  config.scale = 0.1;
  config.budget_seconds = 600.0;
  config.naive_budget_seconds = 0.25;
  return config;
}

std::vector<PaperTable> RunExperiment(const std::string& name) {
  PaperRunner runner(ClaimsConfig());
  std::vector<PaperTable> tables = runner.RunNamed(name);
  EXPECT_FALSE(tables.empty()) << name;
  return tables;
}

std::size_t Slot(const PaperTable& t, PaperEngine engine) {
  const auto& engines = t.experiment->engines;
  const auto it = std::find(engines.begin(), engines.end(), engine);
  EXPECT_NE(it, engines.end());
  return static_cast<std::size_t>(it - engines.begin());
}

std::string Where(const PaperTable& t, const PaperPoint& p) {
  return t.experiment->title + " on " + p.dataset.name +
         " alpha=" + std::to_string(p.params.alpha) +
         " beta=" + std::to_string(p.params.beta) +
         " delta=" + std::to_string(p.params.delta) +
         " axis value=" + std::to_string(p.value);
}

// golden[i][j] is `counter` of `engine` at point j of table i.
void ExpectGolden(const std::vector<PaperTable>& tables, PaperEngine engine,
                  Counter counter, const Golden& golden) {
  ASSERT_EQ(tables.size(), golden.size());
  for (std::size_t i = 0; i < tables.size(); ++i) {
    const PaperTable& t = tables[i];
    ASSERT_EQ(t.points.size(), golden[i].size()) << t.experiment->title;
    const std::size_t slot = Slot(t, engine);
    for (std::size_t j = 0; j < t.points.size(); ++j) {
      const PaperRun& run = t.points[j].runs[slot];
      if (run.cut) continue;
      EXPECT_EQ(run.*counter, golden[i][j]) << Where(t, t.points[j]);
    }
  }
}

// Every engine that finished reports the same result count.
void ExpectEnginesAgree(const std::vector<PaperTable>& tables) {
  for (const PaperTable& t : tables) {
    for (const PaperPoint& p : t.points) {
      const PaperRun* first = nullptr;
      for (const PaperRun& run : p.runs) {
        if (run.cut) continue;
        if (first == nullptr) first = &run;
        EXPECT_EQ(run.results, first->results) << Where(t, p);
      }
    }
  }
}

// Along an alpha or beta sweep, `engine`'s results never increase.
void ExpectNonIncreasing(const std::vector<PaperTable>& tables,
                         PaperEngine engine) {
  for (const PaperTable& t : tables) {
    const PaperAxis axis = t.experiment->axis;
    if (axis != PaperAxis::kAlpha && axis != PaperAxis::kBeta) continue;
    const std::size_t slot = Slot(t, engine);
    for (std::size_t j = 1; j < t.points.size(); ++j) {
      const PaperPoint& prev = t.points[j - 1];
      const PaperPoint& next = t.points[j];
      if (prev.dataset.name != next.dataset.name) continue;
      if (prev.runs[slot].cut || next.runs[slot].cut) continue;
      EXPECT_LE(next.runs[slot].results, prev.runs[slot].results)
          << Where(t, next);
    }
  }
}

TEST(PaperClaims, EveryRowHasAListedName) {
  const std::vector<std::string> names = PaperExperimentNames();
  EXPECT_EQ(names.size(), 13u);
  for (const PaperExperiment& e : PaperExperiments()) {
    EXPECT_NE(std::find(names.begin(), names.end(), e.name), names.end())
        << e.name;
  }
  for (const std::string& name : names) {
    EXPECT_TRUE(std::any_of(
        PaperExperiments().begin(), PaperExperiments().end(),
        [&](const PaperExperiment& e) { return e.name == name; }))
        << name;
  }
}

TEST(PaperClaims, TableIDatasetSizes) {
  const auto tables = RunExperiment("table1");
  ASSERT_EQ(tables.size(), 1u);
  std::vector<std::uint64_t> upper, lower, edges;
  for (const PaperPoint& p : tables[0].points) {
    upper.push_back(p.upper);
    lower.push_back(p.lower);
    edges.push_back(p.edges);
  }
  EXPECT_EQ(upper, (std::vector<std::uint64_t>{300, 500, 800, 5000, 2800}));
  EXPECT_EQ(lower, (std::vector<std::uint64_t>{100, 1400, 2400, 500, 8000}));
  EXPECT_EQ(edges, (std::vector<std::uint64_t>{954, 1508, 3608, 1407, 2311}));
}

TEST(PaperClaims, TableIIOrderingKeepsCounts) {
  const auto tables = RunExperiment("table2");
  ExpectGolden(tables, PaperEngine::kPlusPlus, &PaperRun::results,
               {{107, 107, 350, 350, 3333, 3333, 8, 8, 70, 70},
                {180, 180, 2283, 2283, 6636, 6636, 409, 409, 1641, 1641}});
  ExpectEnginesAgree(tables);
}

// Figs. 3-4: survivors of the core and the colorful core.
TEST(PaperClaims, Fig3Fig4ColorfulCoreLeavesFewest) {
  const auto fig3 = RunExperiment("fig3");
  ExpectGolden(fig3, PaperEngine::kCore, &PaperRun::survivors,
               {{402, 388, 370, 359, 340, 328},
                {402, 365, 305, 275, 245, 197}});
  ExpectGolden(fig3, PaperEngine::kColorful, &PaperRun::survivors,
               {{394, 361, 361, 341, 316, 290},
                {394, 295, 278, 271, 208, 127}});
  const auto fig4 = RunExperiment("fig4");
  ExpectGolden(fig4, PaperEngine::kCore, &PaperRun::survivors,
               {{229, 204, 185, 109, 20, 0}, {229, 212, 155, 79, 43, 24}});
  ExpectGolden(fig4, PaperEngine::kColorful, &PaperRun::survivors,
               {{228, 185, 185, 79, 20, 0}, {228, 205, 99, 79, 43, 24}});
  for (const auto* tables : {&fig3, &fig4}) {
    for (const PaperTable& t : *tables) {
      for (const PaperPoint& p : t.points) {
        const std::uint64_t core =
            p.runs[Slot(t, PaperEngine::kCore)].survivors;
        const std::uint64_t colorful =
            p.runs[Slot(t, PaperEngine::kColorful)].survivors;
        EXPECT_LE(colorful, core) << Where(t, p);
        EXPECT_LE(core, std::uint64_t{p.upper} + p.lower) << Where(t, p);
      }
    }
  }
}

// Figs. 2 and 5: result counts of the runtime sweeps, one list per table
// (youtube with the naive baseline, then the other four datasets) for the
// alpha, beta and delta sweeps.
TEST(PaperClaims, Fig2SingleSideCounts) {
  const auto tables = RunExperiment("fig2");
  ExpectGolden(
      tables, PaperEngine::kPlusPlus, &PaperRun::results,
      {{107, 51, 30, 30, 30},
       {350, 350, 348, 347, 347, 3333, 2870, 2861, 2641, 2640,
        8, 8, 7, 7, 4, 70, 63, 63, 61, 59},
       {107, 86, 1, 0, 0},
       {350, 88, 4, 2, 1, 3333, 2477, 2015, 1979, 1960,
        8, 6, 3, 0, 0, 70, 47, 3, 1, 0},
       {197, 174, 107, 45, 12, 5},
       {321, 370, 350, 255, 138, 55, 7834, 5474, 3333, 1939, 1114, 578,
        57, 22, 8, 8, 8, 8, 269, 167, 70, 23, 16, 16}});
  ExpectEnginesAgree(tables);
  ExpectNonIncreasing(tables, PaperEngine::kPlusPlus);
}

TEST(PaperClaims, Fig5BiSideCounts) {
  const auto tables = RunExperiment("fig5");
  ExpectGolden(
      tables, PaperEngine::kPlusPlus, &PaperRun::results,
      {{180, 78, 77, 70, 64},
       {2283, 2280, 2280, 219, 1, 6636, 6627, 2500, 2279, 1001,
        409, 393, 86, 0, 0, 1641, 375, 121, 44, 0},
       {180, 57, 36, 1, 0},
       {2283, 2281, 88, 4, 2, 6636, 4902, 4902, 4866, 4452,
        409, 119, 117, 90, 0, 1641, 429, 209, 132, 126},
       {3140, 807, 180, 102, 56, 36},
       {7357, 6097, 2283, 384, 184, 66, 139509, 39273, 6636, 1630, 952, 521,
        1356, 1039, 409, 79, 26, 11, 3917, 2799, 1641, 469, 303, 153}});
  ExpectEnginesAgree(tables);
  ExpectNonIncreasing(tables, PaperEngine::kPlusPlus);
}

// Fig. 6: fair bicliques vs maximal bicliques on wiki. Single-side alpha,
// beta, delta sweeps, then bi-side.
TEST(PaperClaims, Fig6FairVsMaximalCounts) {
  const auto tables = RunExperiment("fig6");
  ExpectGolden(tables, PaperEngine::kMbc, &PaperRun::results,
               {{12, 11, 10, 9, 6},
                {12, 7, 5, 0, 0},
                {12, 12, 12, 12, 12, 12},
                {17, 15, 11, 8, 5},
                {17, 12, 7, 5, 0},
                {17, 17, 17, 17, 17, 17}});
  ExpectGolden(tables, PaperEngine::kPlusPlus, &PaperRun::results,
               {{8, 8, 7, 7, 4},
                {8, 6, 3, 0, 0},
                {57, 22, 8, 8, 8, 8},
                {409, 393, 86, 0, 0},
                {409, 119, 117, 90, 0},
                {1356, 1039, 409, 79, 26, 11}});
  ExpectNonIncreasing(tables, PaperEngine::kMbc);
  ExpectNonIncreasing(tables, PaperEngine::kPlusPlus);
}

// Fig. 7: edge samples of dblp (20%..100%).
TEST(PaperClaims, Fig7SampleCounts) {
  const auto tables = RunExperiment("fig7");
  ASSERT_EQ(tables.size(), 2u);
  for (const PaperTable& t : tables) {
    std::vector<std::uint64_t> edges;
    for (const PaperPoint& p : t.points) edges.push_back(p.edges);
    EXPECT_EQ(edges, (std::vector<std::uint64_t>{437, 912, 1437, 1826, 2311}));
  }
  ExpectGolden(tables, PaperEngine::kPlusPlus, &PaperRun::results,
               {{0, 0, 0, 122, 70}, {0, 0, 15, 413, 1641}});
  ExpectEnginesAgree(tables);
}

// Figs. 11-12: proportion fair bicliques on youtube, theta 0.30..0.50.
// The counts are not monotone in theta (180 -> 177 on the bi-side).
TEST(PaperClaims, Fig11Fig12ProportionCounts) {
  const Golden golden{{107, 107, 121, 183, 197}, {180, 177, 191, 1307, 3140}};
  for (const char* name : {"fig11", "fig12"}) {
    ExpectGolden(RunExperiment(name), PaperEngine::kPlusPlus,
                 &PaperRun::results, golden);
  }
}

// A1: none / FCore / CFCore on imdb. The reduction is lossless.
TEST(PaperClaims, AblationPruningIsLossless) {
  const auto tables = RunExperiment("ablation_pruning");
  for (PaperEngine engine : {PaperEngine::kBcem, PaperEngine::kPlusPlus}) {
    ExpectGolden(tables, engine, &PaperRun::survivors, {{3200, 402, 394}});
    ExpectGolden(tables, engine, &PaperRun::results, {{3333, 3333, 3333}});
  }
  ExpectEnginesAgree(tables);
}

// A2: FairBCEM with each search rule off, then all off, on youtube. No
// rule changes the results, and none shrinks the search when off.
// prune_small_l (row 1) is redundant next to the alpha candidate filter.
TEST(PaperClaims, AblationSearchRules) {
  const auto tables = RunExperiment("ablation_rules");
  ExpectGolden(tables, PaperEngine::kBcem, &PaperRun::search_nodes,
               {{2220, 2220, 4042, 2722, 3931, 17185, 984391}});
  ExpectGolden(tables, PaperEngine::kBcem, &PaperRun::results,
               {{107, 107, 107, 107, 107, 107, 107}});
  const auto& points = tables[0].points;
  ASSERT_EQ(points.size(), PaperSearchRules().size());
  const PaperRun& all_on = points.front().runs[0];
  const PaperRun& all_off = points.back().runs[0];
  for (const PaperPoint& p : points) {
    const PaperRun& run = p.runs[0];
    if (run.cut) continue;
    EXPECT_GE(run.search_nodes, all_on.search_nodes) << Where(tables[0], p);
    if (!all_off.cut) {
      EXPECT_LE(run.search_nodes, all_off.search_nodes) << Where(tables[0], p);
    }
  }
}

}  // namespace
}  // namespace fairbc
