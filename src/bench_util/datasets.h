#ifndef FAIRBC_BENCH_UTIL_DATASETS_H_
#define FAIRBC_BENCH_UTIL_DATASETS_H_

#include <string>
#include <vector>

#include "core/enumerate.h"
#include "graph/bipartite_graph.h"
#include "graph/generators.h"

namespace fairbc {

/// One synthetic stand-in for a paper dataset (Table I), with the default
/// parameters used by the paper experiments (bench_util/paper.h). The
/// paper's KONECT graphs are unavailable offline; these planted-affiliation
/// graphs reproduce the overlapping-biclique structure at laptop scale
/// (DESIGN.md §4).
struct DatasetSpec {
  std::string name;           ///< paper dataset this stands in for.
  AffiliationConfig config;   ///< generator parameters.
  /// Default model parameters mirroring Table I's alpha_s/beta_s (single-
  /// side) and alpha_b/beta_b (bi-side), retuned to the synthetic scale.
  FairBicliqueParams ss_defaults;
  FairBicliqueParams bs_defaults;
};

/// The five stand-ins, ordered as in Table I (Youtube, Twitter, IMDB,
/// Wiki-cat, DBLP). `scale` multiplies vertex counts and community counts
/// (1.0 = default laptop scale).
std::vector<DatasetSpec> StandardDatasets(double scale);

struct NamedGraph {
  DatasetSpec spec;
  BipartiteGraph graph;
};

/// Single dataset lookup by (case-insensitive) name at FAIRBC_SCALE.
NamedGraph LoadDataset(const std::string& name);

/// Scale factor from the FAIRBC_SCALE environment variable (default 1.0).
double EnvScale();

}  // namespace fairbc

#endif  // FAIRBC_BENCH_UTIL_DATASETS_H_
