#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/builder.h"

namespace fairbc {

BipartiteGraph MakeUniformRandom(VertexId num_upper, VertexId num_lower,
                                 EdgeIndex num_edges, AttrId num_attrs,
                                 std::uint64_t seed) {
  FAIRBC_CHECK(num_upper > 0 && num_lower > 0);
  Rng rng(seed);
  BipartiteGraphBuilder builder(num_upper, num_lower);
  EdgeIndex max_edges =
      static_cast<EdgeIndex>(num_upper) * static_cast<EdgeIndex>(num_lower);
  num_edges = std::min(num_edges, max_edges);
  // Duplicates are deduped by the builder; oversample slightly to land
  // near the requested count on sparse graphs.
  EdgeIndex to_draw = num_edges + num_edges / 20 + 8;
  for (EdgeIndex i = 0; i < to_draw; ++i) {
    auto u = static_cast<VertexId>(rng.NextUInt64(num_upper));
    auto v = static_cast<VertexId>(rng.NextUInt64(num_lower));
    builder.AddEdge(u, v);
  }
  builder.AssignRandomAttrs(Side::kUpper, num_attrs, rng);
  builder.AssignRandomAttrs(Side::kLower, num_attrs, rng);
  auto result = builder.Build();
  FAIRBC_CHECK(result.ok());
  return std::move(result).value();
}

BipartiteGraph MakePowerLaw(VertexId num_upper, VertexId num_lower,
                            EdgeIndex num_edges, double gamma, AttrId num_attrs,
                            std::uint64_t seed) {
  FAIRBC_CHECK(num_upper > 0 && num_lower > 0 && gamma > 1.0);
  Rng rng(seed);
  // Chung–Lu: expected degree w_i proportional to i^{-1/(gamma-1)}.
  auto make_weights = [&](VertexId n) {
    std::vector<double> w(n);
    double exponent = 1.0 / (gamma - 1.0);
    double sum = 0.0;
    for (VertexId i = 0; i < n; ++i) {
      w[i] = std::pow(static_cast<double>(i + 1), -exponent);
      sum += w[i];
    }
    // Cumulative distribution for inverse-transform sampling.
    std::vector<double> cdf(n);
    double acc = 0.0;
    for (VertexId i = 0; i < n; ++i) {
      acc += w[i] / sum;
      cdf[i] = acc;
    }
    cdf[n - 1] = 1.0;
    return cdf;
  };
  std::vector<double> up_cdf = make_weights(num_upper);
  std::vector<double> lo_cdf = make_weights(num_lower);
  auto sample = [&](const std::vector<double>& cdf) {
    double x = rng.NextDouble();
    auto it = std::lower_bound(cdf.begin(), cdf.end(), x);
    return static_cast<VertexId>(it - cdf.begin());
  };

  BipartiteGraphBuilder builder(num_upper, num_lower);
  EdgeIndex to_draw = num_edges + num_edges / 10 + 8;
  for (EdgeIndex i = 0; i < to_draw; ++i) {
    builder.AddEdge(sample(up_cdf), sample(lo_cdf));
  }
  builder.AssignRandomAttrs(Side::kUpper, num_attrs, rng);
  builder.AssignRandomAttrs(Side::kLower, num_attrs, rng);
  auto result = builder.Build();
  FAIRBC_CHECK(result.ok());
  return std::move(result).value();
}

BipartiteGraph MakeAffiliation(const AffiliationConfig& config) {
  FAIRBC_CHECK(config.num_upper > 0 && config.num_lower > 0);
  FAIRBC_CHECK(config.community_upper_min >= 1 &&
               config.community_upper_min <= config.community_upper_max);
  FAIRBC_CHECK(config.community_lower_min >= 1 &&
               config.community_lower_min <= config.community_lower_max);
  Rng rng(config.seed);
  BipartiteGraphBuilder builder(config.num_upper, config.num_lower);

  EdgeIndex community_edges = 0;
  std::vector<VertexId> member_uppers;
  std::vector<VertexId> member_lowers;
  for (std::uint32_t c = 0; c < config.num_communities; ++c) {
    auto su = static_cast<VertexId>(rng.NextInt(config.community_upper_min,
                                                config.community_upper_max));
    auto sv = static_cast<VertexId>(rng.NextInt(config.community_lower_min,
                                                config.community_lower_max));
    su = std::min(su, config.num_upper);
    sv = std::min(sv, config.num_lower);
    auto uppers = rng.SampleWithoutReplacement(config.num_upper, su);
    auto lowers = rng.SampleWithoutReplacement(config.num_lower, sv);
    member_uppers.insert(member_uppers.end(), uppers.begin(), uppers.end());
    member_lowers.insert(member_lowers.end(), lowers.begin(), lowers.end());
    for (VertexId u : uppers) {
      for (VertexId v : lowers) {
        if (config.edge_keep_prob >= 1.0 || rng.NextBool(config.edge_keep_prob)) {
          builder.AddEdge(u, v);
          ++community_edges;
        }
      }
    }
  }
  auto noise = static_cast<EdgeIndex>(
      static_cast<double>(community_edges) * config.noise_fraction);
  auto pick_upper = [&]() -> VertexId {
    if (!member_uppers.empty() && rng.NextBool(config.noise_attach_community)) {
      return member_uppers[rng.NextUInt64(member_uppers.size())];
    }
    return static_cast<VertexId>(rng.NextUInt64(config.num_upper));
  };
  auto pick_lower = [&]() -> VertexId {
    if (!member_lowers.empty() && rng.NextBool(config.noise_attach_community)) {
      return member_lowers[rng.NextUInt64(member_lowers.size())];
    }
    return static_cast<VertexId>(rng.NextUInt64(config.num_lower));
  };
  for (EdgeIndex i = 0; i < noise; ++i) {
    builder.AddEdge(pick_upper(), pick_lower());
  }
  builder.AssignRandomAttrs(Side::kUpper, config.num_upper_attrs, rng);
  builder.AssignRandomAttrs(Side::kLower, config.num_lower_attrs, rng);
  auto result = builder.Build();
  FAIRBC_CHECK(result.ok());
  return std::move(result).value();
}

BipartiteGraph SampleEdges(const BipartiteGraph& g, double fraction,
                           std::uint64_t seed) {
  FAIRBC_CHECK(fraction >= 0.0 && fraction <= 1.0);
  Rng rng(seed);
  BipartiteGraphBuilder builder(g.NumUpper(), g.NumLower());
  builder.SetNumAttrs(Side::kUpper, g.NumAttrs(Side::kUpper));
  builder.SetNumAttrs(Side::kLower, g.NumAttrs(Side::kLower));
  std::vector<AttrId> up_attrs(g.NumUpper()), lo_attrs(g.NumLower());
  for (VertexId u = 0; u < g.NumUpper(); ++u) {
    up_attrs[u] = g.Attr(Side::kUpper, u);
  }
  for (VertexId v = 0; v < g.NumLower(); ++v) {
    lo_attrs[v] = g.Attr(Side::kLower, v);
  }
  builder.SetAttrs(Side::kUpper, std::move(up_attrs));
  builder.SetAttrs(Side::kLower, std::move(lo_attrs));
  for (VertexId u = 0; u < g.NumUpper(); ++u) {
    for (VertexId v : g.Neighbors(Side::kUpper, u)) {
      if (rng.NextBool(fraction)) builder.AddEdge(u, v);
    }
  }
  auto result = builder.Build();
  FAIRBC_CHECK(result.ok());
  return std::move(result).value();
}

Result<BipartiteGraph> GenerateGraph(const GraphSpec& spec) {
  if (spec.num_upper < 1 || spec.num_upper > kMaxSideVertices ||
      spec.num_lower < 1 || spec.num_lower > kMaxSideVertices) {
    return Status::InvalidArgument("nu/nv must be in [1, 2e7]");
  }
  if (spec.num_edges < 0 || spec.num_edges > 200'000'000) {
    return Status::InvalidArgument("edges must be in [0, 2e8]");
  }
  if (spec.num_attrs < 1 || spec.num_attrs > kMaxAttrClasses) {
    return Status::InvalidArgument("attrs must be in [1, 1024]");
  }
  if (spec.num_communities < 1 || spec.num_communities > 1'000'000) {
    return Status::InvalidArgument("communities must be in [1, 1e6]");
  }
  if (!(spec.gamma > 1.0) || spec.gamma > 10.0) {
    return Status::InvalidArgument("gamma must be in (1, 10]");
  }
  const auto num_upper = static_cast<VertexId>(spec.num_upper);
  const auto num_lower = static_cast<VertexId>(spec.num_lower);
  const auto num_edges = static_cast<EdgeIndex>(spec.num_edges);
  const auto num_attrs = static_cast<AttrId>(spec.num_attrs);
  if (spec.kind == "uniform") {
    return MakeUniformRandom(num_upper, num_lower, num_edges, num_attrs,
                             spec.seed);
  }
  if (spec.kind == "powerlaw") {
    return MakePowerLaw(num_upper, num_lower, num_edges, spec.gamma,
                        num_attrs, spec.seed);
  }
  if (spec.kind == "affiliation") {
    AffiliationConfig config;
    config.num_upper = num_upper;
    config.num_lower = num_lower;
    config.num_communities = static_cast<std::uint32_t>(spec.num_communities);
    config.num_upper_attrs = num_attrs;
    config.num_lower_attrs = num_attrs;
    config.seed = spec.seed;
    return MakeAffiliation(config);
  }
  return Status::InvalidArgument("bad kind (uniform|powerlaw|affiliation)");
}

}  // namespace fairbc
