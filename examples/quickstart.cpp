// Quickstart: build a small attributed bipartite graph, enumerate its
// single-side and bi-side fair bicliques, and print them.
//
//   ./examples/quickstart
//
// The graph models a tiny collaboration network: papers on the upper
// side (attribute: DB=0 / AI=1 venue) and scholars on the lower side
// (attribute: senior=0 / junior=1).

#include <iostream>

#include "core/pipeline.h"
#include "graph/builder.h"

namespace {

const char* ScholarName(fairbc::VertexId v) {
  static const char* kNames[] = {"alice (senior)",  "bob (senior)",
                                 "carol (senior)",  "dave (junior)",
                                 "erin (junior)",   "frank (junior)"};
  return kNames[v];
}

}  // namespace

int main() {
  // Papers p0..p3 (attrs: DB, DB, AI, AI), scholars s0..s5
  // (attrs: senior, senior, senior, junior, junior, junior).
  fairbc::BipartiteGraphBuilder builder(4, 6);
  builder.SetNumAttrs(fairbc::Side::kUpper, 2);
  builder.SetNumAttrs(fairbc::Side::kLower, 2);
  builder.SetAttrs(fairbc::Side::kUpper, {0, 0, 1, 1});
  builder.SetAttrs(fairbc::Side::kLower, {0, 0, 0, 1, 1, 1});
  // A joint project: papers 0-2 co-authored by scholars 0,1,3,4.
  for (fairbc::VertexId p : {0u, 1u, 2u}) {
    for (fairbc::VertexId s : {0u, 1u, 3u, 4u}) builder.AddEdge(p, s);
  }
  // A second group around papers 2,3 with scholars 1,2,4,5.
  for (fairbc::VertexId p : {2u, 3u}) {
    for (fairbc::VertexId s : {1u, 2u, 4u, 5u}) builder.AddEdge(p, s);
  }
  auto built = builder.Build();
  if (!built.ok()) {
    std::cerr << "graph construction failed: " << built.status().ToString()
              << "\n";
    return 1;
  }
  fairbc::BipartiteGraph graph = std::move(built).value();
  std::cout << "Input: " << graph.DebugString() << "\n\n";

  // Single-side fair bicliques: teams backed by >= 2 papers whose scholar
  // set has >= 2 seniors, >= 2 juniors, and difference <= 1.
  fairbc::FairBicliqueParams params;
  params.alpha = 2;
  params.beta = 2;
  params.delta = 1;

  std::cout << "Single-side fair bicliques (alpha=2, beta=2, delta=1):\n";
  fairbc::CollectSink ss;
  fairbc::EnumStats stats = fairbc::RunEnumeration(
      graph, fairbc::FairModel::kSsfbc, fairbc::FairAlgo::kPlusPlus, params,
      {}, ss.AsSink());
  for (const fairbc::Biclique& b : ss.results()) {
    std::cout << "  papers {";
    for (auto p : b.upper) std::cout << " p" << p;
    std::cout << " }  scholars {";
    for (auto s : b.lower) std::cout << " " << ScholarName(s);
    std::cout << " }\n";
  }
  std::cout << "  -> " << stats.num_results << " result(s), "
            << stats.search_nodes << " search nodes, pruned graph "
            << stats.remaining_upper << "x" << stats.remaining_lower << "\n\n";

  // Bi-side: additionally require a balanced mix of DB and AI papers.
  fairbc::FairBicliqueParams bi;
  bi.alpha = 1;
  bi.beta = 2;
  bi.delta = 1;
  std::cout << "Bi-side fair bicliques (alpha=1, beta=2, delta=1):\n";
  fairbc::CollectSink bs;
  fairbc::RunEnumeration(graph, fairbc::FairModel::kBsfbc,
                         fairbc::FairAlgo::kPlusPlus, bi, {}, bs.AsSink());
  for (const fairbc::Biclique& b : bs.results()) {
    std::cout << "  papers {";
    for (auto p : b.upper) std::cout << " p" << p;
    std::cout << " }  scholars {";
    for (auto s : b.lower) std::cout << " " << ScholarName(s);
    std::cout << " }\n";
  }
  if (bs.results().empty()) std::cout << "  (none)\n";
  return 0;
}
