// Pruning losslessness at the pipeline level: results must be identical
// with no pruning, core pruning, and colorful pruning, on graphs large
// enough for the reductions to actually fire.

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "graph/generators.h"
#include "test_util.h"

namespace fairbc {
namespace {

using ::fairbc::testing::Collect;

TEST(PruningSafety, SsfbcIdenticalAcrossPruningLevels) {
  AffiliationConfig config;
  config.num_upper = 120;
  config.num_lower = 120;
  config.num_communities = 10;
  config.community_upper_max = 8;
  config.community_lower_max = 8;
  config.noise_fraction = 0.2;
  config.seed = 21;
  BipartiteGraph g = MakeAffiliation(config);
  FairBicliqueParams params{2, 2, 1, 0.0};

  EnumOptions none, core, colorful;
  none.pruning = PruningLevel::kNone;
  core.pruning = PruningLevel::kCore;
  colorful.pruning = PruningLevel::kColorful;

  auto a = Collect(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params, none);
  auto b = Collect(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params, core);
  auto c = Collect(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params, colorful);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  // The reductions must actually remove vertices on this workload.
  CountSink sink;
  EnumStats stats = RunEnumeration(g, FairModel::kSsfbc, FairAlgo::kPlusPlus,
                                   params, colorful, sink.AsSink());
  EXPECT_LT(stats.remaining_lower, g.NumLower());
}

TEST(PruningSafety, BsfbcIdenticalAcrossPruningLevels) {
  AffiliationConfig config;
  config.num_upper = 90;
  config.num_lower = 90;
  config.num_communities = 8;
  config.community_upper_max = 8;
  config.community_lower_max = 8;
  config.noise_fraction = 0.2;
  config.seed = 22;
  BipartiteGraph g = MakeAffiliation(config);
  FairBicliqueParams params{1, 2, 1, 0.0};

  EnumOptions none, core, colorful;
  none.pruning = PruningLevel::kNone;
  core.pruning = PruningLevel::kCore;
  colorful.pruning = PruningLevel::kColorful;

  auto a = Collect(g, FairModel::kBsfbc, FairAlgo::kPlusPlus, params, none);
  auto b = Collect(g, FairModel::kBsfbc, FairAlgo::kPlusPlus, params, core);
  auto c = Collect(g, FairModel::kBsfbc, FairAlgo::kPlusPlus, params, colorful);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(PruningSafety, ResultsAreInOriginalIds) {
  // After pruning + compaction the emitted ids must refer to the input
  // graph (edges must exist there).
  AffiliationConfig config;
  config.num_upper = 80;
  config.num_lower = 80;
  config.num_communities = 6;
  config.seed = 23;
  BipartiteGraph g = MakeAffiliation(config);
  FairBicliqueParams params{2, 2, 1, 0.0};
  CollectSink sink;
  RunEnumeration(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params, {},
                 sink.AsSink());
  for (const Biclique& b : sink.results()) {
    for (VertexId u : b.upper) {
      ASSERT_LT(u, g.NumUpper());
      for (VertexId v : b.lower) {
        ASSERT_LT(v, g.NumLower());
        EXPECT_TRUE(g.HasEdge(u, v));
      }
    }
  }
}

TEST(PruningSafety, ProModelsUnaffectedByPruning) {
  AffiliationConfig config;
  config.num_upper = 70;
  config.num_lower = 70;
  config.num_communities = 6;
  config.seed = 24;
  BipartiteGraph g = MakeAffiliation(config);
  FairBicliqueParams params{1, 2, 2, 0.4};
  EnumOptions none, colorful;
  none.pruning = PruningLevel::kNone;
  colorful.pruning = PruningLevel::kColorful;
  EXPECT_EQ(Collect(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params, none),
            Collect(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params,
                    colorful));
  EXPECT_EQ(Collect(g, FairModel::kBsfbc, FairAlgo::kPlusPlus, params, none),
            Collect(g, FairModel::kBsfbc, FairAlgo::kPlusPlus, params,
                    colorful));
}

}  // namespace
}  // namespace fairbc
