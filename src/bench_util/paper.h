#ifndef FAIRBC_BENCH_UTIL_PAPER_H_
#define FAIRBC_BENCH_UTIL_PAPER_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "bench_util/datasets.h"
#include "core/fair_bcem.h"
#include "core/verify.h"

namespace fairbc {

/// The paper's evaluation (Tables I–II, Figs. 2–8 and 11–12, ablations
/// A1–A2) as one table of experiment rows run by one sweep loop. The
/// fairbc_paper tool prints the tables; tests/paper_claims_test.cc asserts
/// the deterministic counters of the same rows.

/// What one engine slot of an experiment runs. The experiment's model
/// picks the single-side or bi-side member of each pair.
enum class PaperEngine {
  kNaive,     ///< NSF / BNSF.
  kBcem,      ///< FairBCEM / BFairBCEM.
  kPlusPlus,  ///< FairBCEM++ / BFairBCEM++.
  kMbc,       ///< maximal bicliques at the model's size thresholds (Fig. 6).
  kCore,      ///< FCore / BFCore reduction only (Figs. 3–4).
  kColorful,  ///< CFCore / BCFCore reduction only (Figs. 3–4).
};

/// The swept parameter. Alpha and beta values are offsets from the
/// dataset's default parameters; every other axis value is absolute.
enum class PaperAxis {
  kNone,
  kAlpha,
  kBeta,
  kDelta,
  kTheta,
  kOrdering,      ///< 0 = IDOrd, 1 = DegOrd (Table II).
  kPruning,       ///< a PruningLevel (ablation A1).
  kEdgeFraction,  ///< percent of edges kept by SampleEdges (Fig. 7).
  kSearchRule,    ///< index into PaperSearchRules() (ablation A2).
};

/// What a printed column shows: a figure of the sweep point's graph or one
/// engine's measurement.
enum class PaperMetric {
  kUpper,
  kLower,
  kEdges,
  kDensity,
  kGraphBytes,
  kSsDefaults,   ///< the dataset's single-side alpha/beta/delta.
  kBsDefaults,   ///< the dataset's bi-side alpha/beta/delta.
  kSeconds,      ///< wall clock of the engine ("INF" when cut).
  kResults,      ///< results the engine emitted.
  kSurvivors,    ///< vertices left by the graph reduction.
  kSearchNodes,  ///< branch-and-bound nodes visited.
  kStructBytes,  ///< EnumStats::peak_struct_bytes (Fig. 8).
};

struct PaperColumn {
  PaperMetric metric;
  std::size_t engine = 0;  ///< index into PaperExperiment::engines.
};

/// One row of the experiment table: one printed table.
struct PaperExperiment {
  std::string name;                   ///< tool argument: "table1", "fig2", ...
  std::string title;
  std::vector<std::string> datasets;  ///< empty = all five, Table I order.
  FairModel model = FairModel::kSsfbc;
  std::vector<PaperEngine> engines;
  PaperAxis axis = PaperAxis::kNone;
  std::vector<double> values;  ///< axis values; ignored for kNone.
  std::vector<PaperColumn> columns;
};

/// Every experiment row. Several rows share a name.
const std::vector<PaperExperiment>& PaperExperiments();

/// The experiment names, in print order.
std::vector<std::string> PaperExperimentNames();

/// One ablation-A2 configuration of the FairBCEM search rules.
struct PaperSearchRule {
  std::string label;
  FairBcemSearchOptions options;
};
const std::vector<PaperSearchRule>& PaperSearchRules();

/// One engine at one sweep point. Counters are exact unless `cut`.
struct PaperRun {
  std::uint64_t results = 0;
  std::uint64_t survivors = 0;
  std::uint64_t search_nodes = 0;
  std::uint64_t struct_bytes = 0;
  double seconds = 0.0;
  bool cut = false;  ///< the time budget ran out: counters are partial.
};

/// One sweep point: its dataset, parameters, graph and engine runs.
struct PaperPoint {
  DatasetSpec dataset;
  double value = 0.0;  ///< the axis value.
  FairBicliqueParams params;
  VertexId upper = 0;
  VertexId lower = 0;
  std::uint64_t edges = 0;
  double density = 0.0;
  std::uint64_t graph_bytes = 0;
  std::vector<PaperRun> runs;  ///< parallel to PaperExperiment::engines.
};

struct PaperTable {
  const PaperExperiment* experiment = nullptr;
  std::vector<PaperPoint> points;
};

struct PaperConfig {
  double scale = 1.0;
  /// Time budget of every engine run; stands in for the paper's 24h
  /// timeout ("INF").
  double budget_seconds = 8.0;
  /// Tighter budget of the NSF/BNSF baselines, which the paper could run
  /// almost nowhere.
  double naive_budget_seconds = 1.5;
};

/// FAIRBC_SCALE (default 1.0) and FAIRBC_TIME_BUDGET (seconds, default 8,
/// also capping the naive baselines' 1.5 s).
PaperConfig PaperConfigFromEnv();

/// Runs experiment rows, generating each dataset once.
class PaperRunner {
 public:
  explicit PaperRunner(const PaperConfig& config);

  PaperTable Run(const PaperExperiment& experiment);

  /// Every row named `name`, in table order.
  std::vector<PaperTable> RunNamed(const std::string& name);

 private:
  const BipartiteGraph& Graph(const DatasetSpec& spec);
  PaperRun RunEngine(const BipartiteGraph& g, const PaperExperiment& e,
                     const PaperPoint& point, PaperEngine engine) const;

  PaperConfig config_;
  std::vector<DatasetSpec> specs_;
  std::map<std::string, BipartiteGraph> graphs_;
};

/// Prints one table as aligned text.
void PrintPaperTable(const PaperTable& table, std::ostream& os);

}  // namespace fairbc

#endif  // FAIRBC_BENCH_UTIL_PAPER_H_
