#include <gtest/gtest.h>

#include <cstdlib>

#include "bench_util/datasets.h"

namespace fairbc {
namespace {

TEST(Datasets, FiveStandardSpecs) {
  auto specs = StandardDatasets(1.0);
  ASSERT_EQ(specs.size(), 5u);
  EXPECT_EQ(specs[0].name, "youtube");
  EXPECT_EQ(specs[4].name, "dblp");
  // Relative scale ordering mirrors Table I: dblp largest.
  EXPECT_GT(specs[4].config.num_lower, specs[0].config.num_lower);
}

TEST(Datasets, ScaleShrinksGraphs) {
  auto big = StandardDatasets(1.0);
  auto small = StandardDatasets(0.1);
  for (std::size_t i = 0; i < big.size(); ++i) {
    EXPECT_LE(small[i].config.num_upper, big[i].config.num_upper);
    EXPECT_LE(small[i].config.num_communities, big[i].config.num_communities);
  }
}

TEST(Datasets, LoadDatasetByNameIsDeterministic) {
  setenv("FAIRBC_SCALE", "0.05", 1);
  NamedGraph a = LoadDataset("youtube");
  NamedGraph b = LoadDataset("YOUTUBE");
  unsetenv("FAIRBC_SCALE");
  EXPECT_EQ(a.graph.NumEdges(), b.graph.NumEdges());
  EXPECT_EQ(a.spec.name, "youtube");
  EXPECT_TRUE(a.graph.Validate().ok());
}

TEST(Datasets, EnvScaleParsing) {
  setenv("FAIRBC_SCALE", "0.25", 1);
  EXPECT_DOUBLE_EQ(EnvScale(), 0.25);
  setenv("FAIRBC_SCALE", "garbage", 1);
  EXPECT_DOUBLE_EQ(EnvScale(), 1.0);
  unsetenv("FAIRBC_SCALE");
  EXPECT_DOUBLE_EQ(EnvScale(), 1.0);
}

}  // namespace
}  // namespace fairbc
