#include "bench_util/datasets.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "common/status.h"

namespace fairbc {

namespace {

VertexId Scaled(VertexId base, double scale) {
  return std::max<VertexId>(8, static_cast<VertexId>(base * scale));
}

DatasetSpec MakeSpec(const std::string& name, VertexId nu, VertexId nv,
                     std::uint32_t communities, VertexId cu_max, VertexId cv_max,
                     double noise, std::uint64_t seed,
                     FairBicliqueParams ss_defaults,
                     FairBicliqueParams bs_defaults, double scale) {
  DatasetSpec spec;
  spec.name = name;
  spec.config.num_upper = Scaled(nu, scale);
  spec.config.num_lower = Scaled(nv, scale);
  spec.config.num_communities =
      std::max<std::uint32_t>(4, static_cast<std::uint32_t>(communities * scale));
  spec.config.community_upper_min = 4;
  spec.config.community_upper_max = cu_max;
  spec.config.community_lower_min = 4;
  spec.config.community_lower_max = cv_max;
  spec.config.noise_fraction = noise;
  spec.config.seed = seed;
  spec.ss_defaults = ss_defaults;
  spec.bs_defaults = bs_defaults;
  return spec;
}

}  // namespace

std::vector<DatasetSpec> StandardDatasets(double scale) {
  // Relative scale ordering mirrors Table I: youtube < twitter < imdb ~
  // wiki < dblp. Default parameters are the Table-I defaults retuned to
  // the synthetic scale (delta* = 2, theta* = 0.4 as in the paper).
  std::vector<DatasetSpec> specs;
  specs.push_back(MakeSpec(
      "youtube", 3000, 1000, 90, 14, 12, 0.3, 101,
      FairBicliqueParams{.alpha = 4, .beta = 3, .delta = 2, .theta = 0.0},
      FairBicliqueParams{.alpha = 2, .beta = 2, .delta = 2, .theta = 0.0},
      scale));
  specs.push_back(MakeSpec(
      "twitter", 5000, 14000, 140, 14, 14, 0.3, 102,
      FairBicliqueParams{.alpha = 4, .beta = 3, .delta = 2, .theta = 0.0},
      FairBicliqueParams{.alpha = 2, .beta = 2, .delta = 2, .theta = 0.0},
      scale));
  specs.push_back(MakeSpec(
      "imdb", 8000, 24000, 180, 16, 22, 0.3, 103,
      FairBicliqueParams{.alpha = 5, .beta = 3, .delta = 2, .theta = 0.0},
      FairBicliqueParams{.alpha = 3, .beta = 3, .delta = 2, .theta = 0.0},
      scale));
  specs.push_back(MakeSpec(
      "wiki", 50000, 5000, 170, 14, 12, 0.25, 104,
      FairBicliqueParams{.alpha = 4, .beta = 3, .delta = 2, .theta = 0.0},
      FairBicliqueParams{.alpha = 2, .beta = 2, .delta = 2, .theta = 0.0},
      scale));
  specs.push_back(MakeSpec(
      "dblp", 28000, 80000, 260, 12, 12, 0.2, 105,
      FairBicliqueParams{.alpha = 4, .beta = 3, .delta = 2, .theta = 0.0},
      FairBicliqueParams{.alpha = 2, .beta = 2, .delta = 2, .theta = 0.0},
      scale));
  return specs;
}

double EnvScale() {
  const char* env = std::getenv("FAIRBC_SCALE");
  if (env == nullptr) return 1.0;
  double scale = std::atof(env);
  return scale > 0.0 ? scale : 1.0;
}

NamedGraph LoadDataset(const std::string& name) {
  std::string lowered = name;
  std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  for (const DatasetSpec& spec : StandardDatasets(EnvScale())) {
    if (spec.name == lowered) {
      return NamedGraph{spec, MakeAffiliation(spec.config)};
    }
  }
  FAIRBC_CHECK(false && "unknown dataset name");
  return {};
}

}  // namespace fairbc
