// Movies case study (paper §V-C, Fig. 10(c)-(e)): the cold-start /
// explosion-bias problem — plain CF keeps recommending old, established
// movies; comparable new movies rarely surface. Fair bicliques with the
// movie side as the fair side (old vs new attribute) surface groups that
// recommend both.
//
// Data: synthetic user-movie ratings with planted bias toward old movies
// (DESIGN.md §4 substitution for the Kaggle MovieLens-derived dataset).

#include <iostream>

#include "core/pipeline.h"
#include "recsys/cf.h"
#include "recsys/recommend_graph.h"

int main() {
  fairbc::BiasedInteractionsConfig config;
  config.num_users = 350;          // viewers
  config.num_items = 400;          // movies; attr 0 = old (pre-1990), 1 = new
  config.num_clusters = 8;         // genres
  config.interactions_per_user = 10;
  config.popularity_boost = 0.65;  // old movies get more exposure
  config.popular_fraction = 0.5;
  config.num_user_attrs = 2;
  config.seed = 777;
  fairbc::BipartiteGraph ratings = fairbc::MakeBiasedInteractions(config);
  std::cout << "Rating history: " << ratings.DebugString() << "\n";

  fairbc::ItemBasedCF cf(ratings);

  // Fig. 10(c)-(d): top-5 lists dominated by old movies.
  fairbc::BipartiteGraph top5 = fairbc::BuildRecommendationGraph(ratings, cf, 5);
  double old_share = fairbc::PopularShare(top5);
  std::cout << "Plain CF top-5: old-movie share = " << old_share << "\n";

  // Fig. 10(e): top-10 graph + SSFBC with movies as the fair side.
  fairbc::BipartiteGraph top10 =
      fairbc::BuildRecommendationGraph(ratings, cf, 10);
  fairbc::FairBicliqueParams params;
  params.alpha = 2;
  params.beta = 2;
  params.delta = 1;
  fairbc::CollectSink sink;
  fairbc::RunEnumeration(top10, fairbc::FairModel::kSsfbc,
                         fairbc::FairAlgo::kPlusPlus, params, {},
                         sink.AsSink());
  std::cout << "SSFBC groups on top-10 graph: " << sink.results().size()
            << "\n";

  // Aggregate the old/new mix across fair groups vs the plain CF edges.
  std::uint64_t fair_old = 0, fair_new = 0;
  for (const fairbc::Biclique& b : sink.results()) {
    for (auto movie : b.lower) {
      (top10.Attr(fairbc::Side::kLower, movie) == 0 ? fair_old : fair_new)++;
    }
  }
  if (fair_old + fair_new > 0) {
    double fair_share =
        static_cast<double>(fair_old) / static_cast<double>(fair_old + fair_new);
    std::cout << "Old-movie share inside fair groups = " << fair_share
              << " (new movies like the paper's \"X-men\" now surface)\n";
    std::cout << "\nShape check: plain CF share " << old_share
              << " -> fair-biclique share " << fair_share
              << "; fairness mining balances exposure by construction\n"
              << "(every group holds >= 2 old and >= 2 new movies, "
                 "difference <= 1).\n";
  } else {
    std::cout << "No fair group found — relax parameters.\n";
  }

  // Per-user view for a couple of users (the paper's user 310 / 512).
  std::size_t shown = 0;
  for (const fairbc::Biclique& b : sink.results()) {
    if (shown++ == 2) break;
    std::cout << "  users {";
    for (auto u : b.upper) std::cout << " " << u;
    std::cout << " } get movies {";
    for (auto m : b.lower) {
      std::cout << " " << m
                << (top10.Attr(fairbc::Side::kLower, m) == 0 ? "(old)"
                                                             : "(new)");
    }
    std::cout << " }\n";
  }
  return 0;
}
