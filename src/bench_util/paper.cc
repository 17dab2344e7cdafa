#include "bench_util/paper.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ostream>

#include "common/memory.h"
#include "common/timer.h"
#include "core/cfcore.h"
#include "core/fcore.h"
#include "core/pipeline.h"
#include "graph/generators.h"

namespace fairbc {

namespace {

using E = PaperEngine;
using A = PaperAxis;
using M = PaperMetric;

constexpr FairModel kSs = FairModel::kSsfbc;
constexpr FairModel kBs = FairModel::kBsfbc;

PaperColumn Col(PaperMetric metric, std::size_t engine = 0) {
  return {metric, engine};
}

std::vector<PaperExperiment> BuildExperiments() {
  const std::vector<std::string> all;
  const std::vector<std::string> youtube{"youtube"};
  const std::vector<std::string> not_youtube{"twitter", "imdb", "wiki",
                                             "dblp"};
  const std::vector<double> plus4{0, 1, 2, 3, 4};
  const std::vector<double> zero_to_5{0, 1, 2, 3, 4, 5};
  const std::vector<double> thetas{0.30, 0.35, 0.40, 0.45, 0.50};
  const std::vector<std::pair<PaperAxis, std::vector<double>>> alpha_beta_delta{
      {A::kAlpha, plus4}, {A::kBeta, plus4}, {A::kDelta, zero_to_5}};
  const PaperColumn seconds0 = Col(M::kSeconds, 0);
  const PaperColumn seconds1 = Col(M::kSeconds, 1);

  std::vector<PaperExperiment> rows;
  rows.push_back({"table1", "Table I: datasets and default parameters", all,
                  kSs, {}, A::kNone, {},
                  {Col(M::kUpper), Col(M::kLower), Col(M::kEdges),
                   Col(M::kDensity), Col(M::kSsDefaults),
                   Col(M::kBsDefaults)}});
  for (FairModel model : {kSs, kBs}) {
    const bool ss = model == kSs;
    const std::string side = ss ? " (single-side)" : " (bi-side)";
    rows.push_back({"table2", "Table II: IDOrd vs DegOrd" + side, all, model,
                    {E::kBcem, E::kPlusPlus}, A::kOrdering, {0, 1},
                    {seconds0, seconds1, Col(M::kResults, 1)}});
    // Figs. 2 and 5: the naive baseline runs on youtube only, as the paper
    // could run it on one dataset only.
    const std::string runtime = ss ? "fig2" : "fig5";
    const std::string runtime_title = (ss ? "Fig. 2" : "Fig. 5") +
                                      std::string(": runtime") + side;
    for (const auto& [axis, values] : alpha_beta_delta) {
      rows.push_back({runtime, runtime_title, youtube, model,
                      {E::kNaive, E::kBcem, E::kPlusPlus}, axis, values,
                      {seconds0, seconds1, Col(M::kSeconds, 2),
                       Col(M::kResults, 2)}});
      rows.push_back({runtime, runtime_title, not_youtube, model,
                      {E::kBcem, E::kPlusPlus}, axis, values,
                      {seconds0, seconds1, Col(M::kResults, 1)}});
    }
    for (PaperAxis axis : {A::kAlpha, A::kBeta}) {
      rows.push_back({ss ? "fig3" : "fig4",
                      (ss ? "Fig. 3" : "Fig. 4") +
                          std::string(": reduction survivors") + side,
                      {ss ? "imdb" : "twitter"}, model,
                      {E::kCore, E::kColorful}, axis, zero_to_5,
                      {Col(M::kSurvivors, 0), Col(M::kSurvivors, 1), seconds0,
                       seconds1}});
    }
    for (const auto& [axis, values] : alpha_beta_delta) {
      rows.push_back({"fig6", "Fig. 6: fair vs maximal bicliques" + side,
                      {"wiki"}, model, {E::kMbc, E::kPlusPlus}, axis, values,
                      {Col(M::kResults, 0), Col(M::kResults, 1)}});
    }
    rows.push_back({"fig7", "Fig. 7: scalability" + side, {"dblp"}, model,
                    {E::kBcem, E::kPlusPlus}, A::kEdgeFraction,
                    {20, 40, 60, 80, 100},
                    {Col(M::kEdges), seconds0, seconds1, Col(M::kResults, 1)}});
    rows.push_back({"fig8", "Fig. 8: memory excl. input graph" + side, all,
                    model, {E::kBcem, E::kPlusPlus}, A::kNone, {},
                    {Col(M::kGraphBytes), Col(M::kStructBytes, 0),
                     Col(M::kStructBytes, 1)}});
    rows.push_back({"fig11", "Fig. 11: proportion fair bicliques" + side,
                    youtube, model, {E::kPlusPlus}, A::kTheta, thetas,
                    {Col(M::kResults)}});
    rows.push_back({"fig12", "Fig. 12: proportion runtime" + side, youtube,
                    model, {E::kPlusPlus}, A::kTheta, thetas,
                    {seconds0, Col(M::kResults)}});
  }
  rows.push_back({"ablation_pruning", "Ablation A1: graph-reduction level",
                  {"imdb"}, kSs, {E::kBcem, E::kPlusPlus}, A::kPruning,
                  {0, 1, 2},
                  {seconds0, seconds1, Col(M::kSurvivors, 1),
                   Col(M::kResults, 1)}});
  rows.push_back({"ablation_rules", "Ablation A2: FairBCEM search rules",
                  youtube, kSs, {E::kBcem}, A::kSearchRule,
                  {0, 1, 2, 3, 4, 5, 6},
                  {Col(M::kSearchNodes), seconds0, Col(M::kResults)}});
  return rows;
}

// {single-side, bi-side} name of each PaperEngine, in enum order.
constexpr const char* kEngineNames[][2] = {
    {"NSF", "BNSF"}, {"FairBCEM", "BFairBCEM"}, {"FairBCEM++", "BFairBCEM++"},
    {"MBC", "MBC"},  {"FCore", "BFCore"},       {"CFCore", "BCFCore"}};

// Column header of each PaperAxis, in enum order.
constexpr const char* kAxisNames[] = {
    "", "alpha", "beta", "delta", "theta", "ordering", "pruning", "m",
    "configuration"};

std::string EngineName(PaperEngine engine, FairModel model) {
  return kEngineNames[static_cast<int>(engine)][model == kBs ? 1 : 0];
}

std::string AxisName(PaperAxis axis) {
  return kAxisNames[static_cast<int>(axis)];
}

std::string Format(const char* fmt, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

std::string AxisLabel(const PaperExperiment& e, const PaperPoint& p) {
  const auto index = static_cast<int>(p.value);
  if (e.axis == A::kAlpha) return std::to_string(p.params.alpha);
  if (e.axis == A::kBeta) return std::to_string(p.params.beta);
  if (e.axis == A::kDelta) return std::to_string(p.params.delta);
  if (e.axis == A::kTheta) return Format("%.2f", p.params.theta);
  if (e.axis == A::kOrdering) return index == 0 ? "IDOrd" : "DegOrd";
  if (e.axis == A::kEdgeFraction) return Format("%.0f%%", p.value);
  if (e.axis == A::kSearchRule) return PaperSearchRules()[index].label;
  if (e.axis == A::kPruning) {
    return index == 0 ? "none"
                      : EngineName(index == 1 ? E::kCore : E::kColorful,
                                   e.model);
  }
  return "";
}

std::string Header(const PaperExperiment& e, const PaperColumn& c) {
  const PaperEngine engine =
      c.engine < e.engines.size() ? e.engines[c.engine] : E::kPlusPlus;
  const std::string name = EngineName(engine, e.model);
  if (c.metric == M::kUpper) return "|U|";
  if (c.metric == M::kLower) return "|V|";
  if (c.metric == M::kEdges) return "|E|";
  if (c.metric == M::kDensity) return "density";
  if (c.metric == M::kGraphBytes) return "graph size";
  if (c.metric == M::kSsDefaults) return "ss a/b/d";
  if (c.metric == M::kBsDefaults) return "bs a/b/d";
  if (c.metric == M::kSeconds) return name + " (s)";
  if (c.metric == M::kSearchNodes) return "search nodes";
  if (c.metric == M::kStructBytes) return name;
  if (c.metric == M::kSurvivors) {
    return engine == E::kCore || engine == E::kColorful ? name + " nodes"
                                                        : "remaining nodes";
  }
  if (engine == E::kMbc) return "#MBC";
  return std::string(e.axis == A::kTheta ? "#P" : "#") +
         (e.model == kSs ? "SSFBC" : "BSFBC");
}

std::string Cell(const PaperColumn& c, const PaperPoint& p) {
  auto defaults = [](const FairBicliqueParams& d) {
    return std::to_string(d.alpha) + "/" + std::to_string(d.beta) + "/" +
           std::to_string(d.delta);
  };
  if (c.metric == M::kUpper) return std::to_string(p.upper);
  if (c.metric == M::kLower) return std::to_string(p.lower);
  if (c.metric == M::kEdges) return std::to_string(p.edges);
  if (c.metric == M::kDensity) return Format("%.2e", p.density);
  if (c.metric == M::kGraphBytes) return HumanBytes(p.graph_bytes);
  if (c.metric == M::kSsDefaults) return defaults(p.dataset.ss_defaults);
  if (c.metric == M::kBsDefaults) return defaults(p.dataset.bs_defaults);
  const PaperRun& run = p.runs[c.engine];
  // A cut run's counters are lower bounds.
  const std::string cut = run.cut ? "+" : "";
  if (c.metric == M::kResults) return std::to_string(run.results) + cut;
  if (c.metric == M::kSearchNodes) {
    return std::to_string(run.search_nodes) + cut;
  }
  if (c.metric == M::kSurvivors) return std::to_string(run.survivors);
  if (c.metric == M::kStructBytes) return HumanBytes(run.struct_bytes);
  if (run.cut) return "INF";
  return Format(run.seconds < 0.001 ? "%.2e" : "%.3f", run.seconds);
}

}  // namespace

const std::vector<PaperExperiment>& PaperExperiments() {
  static const std::vector<PaperExperiment> rows = BuildExperiments();
  return rows;
}

std::vector<std::string> PaperExperimentNames() {
  return {"table1", "table2", "fig2",  "fig3",  "fig4",
          "fig5",   "fig6",   "fig7",  "fig8",  "fig11",
          "fig12",  "ablation_pruning", "ablation_rules"};
}

const std::vector<PaperSearchRule>& PaperSearchRules() {
  static const std::vector<PaperSearchRule> rules{
      {"all rules on (FairBCEM)", {}},
      {"- Obs.5 |L|>=alpha kill", {.prune_small_l = false}},
      {"- Obs.2 excluded-full kill", {.prune_excluded_full = false}},
      {"- Obs.5 class-count kill", {.prune_class_counts = false}},
      {"- Obs.4 absorb shortcut", {.absorb_full_candidates = false}},
      {"- candidate alpha-filter", {.filter_candidates_alpha = false}},
      {"all rules off (NSF)", NaiveSearchOptions()}};
  return rules;
}

PaperConfig PaperConfigFromEnv() {
  PaperConfig config;
  config.scale = EnvScale();
  if (const char* env = std::getenv("FAIRBC_TIME_BUDGET")) {
    const double v = std::atof(env);
    if (v > 0) config.budget_seconds = v;
  }
  config.naive_budget_seconds =
      std::min(config.naive_budget_seconds, config.budget_seconds);
  return config;
}

PaperRunner::PaperRunner(const PaperConfig& config)
    : config_(config), specs_(StandardDatasets(config.scale)) {}

const BipartiteGraph& PaperRunner::Graph(const DatasetSpec& spec) {
  auto it = graphs_.find(spec.name);
  if (it == graphs_.end()) {
    it = graphs_.emplace(spec.name, MakeAffiliation(spec.config)).first;
  }
  return it->second;
}

PaperTable PaperRunner::Run(const PaperExperiment& e) {
  PaperTable table;
  table.experiment = &e;
  const std::vector<double> no_sweep{0};
  const std::vector<double>& values = e.axis == A::kNone ? no_sweep : e.values;
  for (const DatasetSpec& spec : specs_) {
    if (!e.datasets.empty() &&
        std::find(e.datasets.begin(), e.datasets.end(), spec.name) ==
            e.datasets.end()) {
      continue;
    }
    const BipartiteGraph& base = Graph(spec);
    for (double value : values) {
      PaperPoint p;
      p.dataset = spec;
      p.value = value;
      p.params = e.model == kSs ? spec.ss_defaults : spec.bs_defaults;
      const auto step = static_cast<std::uint32_t>(value);
      if (e.axis == A::kAlpha) p.params.alpha += step;
      if (e.axis == A::kBeta) p.params.beta += step;
      if (e.axis == A::kDelta) p.params.delta = step;
      if (e.axis == A::kTheta) p.params.theta = value;
      BipartiteGraph sample;
      if (e.axis == A::kEdgeFraction) {
        sample = SampleEdges(base, value / 100.0, step);
      }
      const BipartiteGraph& g = e.axis == A::kEdgeFraction ? sample : base;
      p.upper = g.NumUpper();
      p.lower = g.NumLower();
      p.edges = g.NumEdges();
      p.density = g.Density();
      p.graph_bytes = g.MemoryBytes();
      for (PaperEngine engine : e.engines) {
        p.runs.push_back(RunEngine(g, e, p, engine));
      }
      table.points.push_back(std::move(p));
    }
  }
  return table;
}

std::vector<PaperTable> PaperRunner::RunNamed(const std::string& name) {
  std::vector<PaperTable> tables;
  for (const PaperExperiment& e : PaperExperiments()) {
    if (e.name == name) tables.push_back(Run(e));
  }
  return tables;
}

PaperRun PaperRunner::RunEngine(const BipartiteGraph& g,
                                const PaperExperiment& e, const PaperPoint& p,
                                PaperEngine engine) const {
  const bool bi_side = e.model == kBs;
  const std::uint32_t alpha = p.params.alpha;
  const std::uint32_t beta = p.params.beta;
  PaperRun run;
  Timer timer;
  if (engine == E::kCore || engine == E::kColorful) {
    const SideMasks masks =
        engine == E::kCore
            ? (bi_side ? BFCore(g, alpha, beta) : FCore(g, alpha, beta))
            : (bi_side ? BCFCore(g, alpha, beta) : CFCore(g, alpha, beta))
                  .masks;
    run.seconds = timer.ElapsedSeconds();
    run.survivors =
        masks.CountAlive(Side::kUpper) + masks.CountAlive(Side::kLower);
    return run;
  }

  EnumOptions options;
  options.time_budget_seconds = engine == E::kNaive
                                    ? config_.naive_budget_seconds
                                    : config_.budget_seconds;
  if (e.axis == A::kOrdering) {
    options.ordering =
        p.value == 0 ? VertexOrdering::kId : VertexOrdering::kDegreeDesc;
  }
  if (e.axis == A::kPruning) {
    options.pruning = static_cast<PruningLevel>(static_cast<int>(p.value));
  }
  CountSink sink;
  EnumStats stats;
  if (engine == E::kMbc) {
    // The paper's protocol: maximal bicliques with |L| >= alpha (bi-side:
    // alpha per upper class) and |R| >= beta per lower class.
    const std::uint32_t min_upper =
        bi_side ? g.NumAttrs(Side::kUpper) * alpha : alpha;
    stats = EnumerateMaximalBicliquesPruned(
        g, min_upper, g.NumAttrs(Side::kLower) * beta, options, sink.AsSink());
  } else if (e.axis == A::kSearchRule) {
    stats = EnumerateSSFBCWithSearchOptions(
        g, p.params, options,
        PaperSearchRules()[static_cast<std::size_t>(p.value)].options,
        sink.AsSink());
  } else {
    const FairAlgo algo = engine == E::kNaive  ? FairAlgo::kNaive
                          : engine == E::kBcem ? FairAlgo::kBcem
                                               : FairAlgo::kPlusPlus;
    stats = RunEnumeration(g, e.model, algo, p.params, options, sink.AsSink());
  }
  run.seconds = timer.ElapsedSeconds();
  run.results = sink.count();
  run.survivors = std::uint64_t{stats.remaining_upper} + stats.remaining_lower;
  run.search_nodes = stats.search_nodes;
  run.struct_bytes = stats.peak_struct_bytes;
  run.cut = stats.budget_exhausted;
  return run;
}

void PrintPaperTable(const PaperTable& table, std::ostream& os) {
  const PaperExperiment& e = *table.experiment;
  const bool by_dataset = e.datasets.size() != 1;
  const bool by_value = e.axis != A::kNone;
  std::vector<std::vector<std::string>> rows(1);  // rows[0] is the header.
  if (by_dataset) rows[0].push_back("dataset");
  if (by_value) rows[0].push_back(AxisName(e.axis));
  for (const PaperColumn& c : e.columns) rows[0].push_back(Header(e, c));
  for (const PaperPoint& p : table.points) {
    std::vector<std::string>& row = rows.emplace_back();
    if (by_dataset) row.push_back(p.dataset.name);
    if (by_value) row.push_back(AxisLabel(e, p));
    for (const PaperColumn& c : e.columns) row.push_back(Cell(c, p));
  }
  std::vector<std::size_t> width(rows[0].size());
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      width[i] = std::max(width[i], row[i].size());
    }
  }

  os << "\n== " << e.title;
  if (by_value) os << ", vary " << AxisName(e.axis);
  if (!by_dataset) os << ", on " << e.datasets[0];
  os << " ==\n";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t i = 0; i < width.size(); ++i) {
      os << "| " << rows[r][i] << std::string(width[i] - rows[r][i].size(), ' ')
         << ' ';
    }
    os << "|\n";
    if (r > 0) continue;
    for (std::size_t w : width) os << '|' << std::string(w + 2, '-');
    os << "|\n";
  }
}

}  // namespace fairbc
