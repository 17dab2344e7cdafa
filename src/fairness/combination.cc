#include "fairness/combination.h"

#include <algorithm>

#include "fairness/fair_set.h"

namespace fairbc {

FairSubsetPlan PlanMaximalFairSubsets(const BipartiteGraph& g, Side side,
                                      std::span<const VertexId> ground,
                                      const FairnessSpec& spec) {
  const AttrId num_attrs = g.NumAttrs(side);
  FairSubsetPlan plan;
  SizeVector counts(num_attrs, 0);
  for (VertexId v : ground) ++counts[g.Attr(side, v)];
  plan.class_begin.assign(num_attrs + 1, 0);
  for (AttrId a = 0; a < num_attrs; ++a) {
    plan.class_begin[a + 1] = plan.class_begin[a] + counts[a];
  }
  // Counting sort by class; a stable pass keeps each class ascending when
  // the ground set is, and the per-class sort below covers the rest.
  plan.members.resize(ground.size());
  std::vector<std::uint32_t> next(plan.class_begin.begin(),
                                  plan.class_begin.end() - 1);
  for (VertexId v : ground) plan.members[next[g.Attr(side, v)]++] = v;
  for (AttrId a = 0; a < num_attrs; ++a) {
    std::sort(plan.members.begin() + plan.class_begin[a],
              plan.members.begin() + plan.class_begin[a + 1]);
  }
  plan.targets = MaximalFairVectors(counts, spec);
  return plan;
}

std::uint64_t EnumerateMaximalFairSubsets(const BipartiteGraph& g, Side side,
                                          std::span<const VertexId> ground,
                                          const FairnessSpec& spec,
                                          const SubsetSink& sink) {
  struct Collector {
    const SubsetSink& sink;
    std::vector<VertexId> prefix;
    std::vector<VertexId> sorted;

    void Push(VertexId v) { prefix.push_back(v); }
    void Pop(VertexId) { prefix.pop_back(); }
    bool Leaf() {
      sorted = prefix;
      std::sort(sorted.begin(), sorted.end());
      return sink(sorted);
    }
  };
  Collector collector{sink, {}, {}};
  return WalkMaximalFairSubsets(PlanMaximalFairSubsets(g, side, ground, spec),
                                collector);
}

std::uint64_t CountMaximalFairSubsetsOf(const BipartiteGraph& g, Side side,
                                        std::span<const VertexId> ground,
                                        const FairnessSpec& spec) {
  SizeVector counts = AttrSizes(g, side, ground);
  return CountMaximalFairSubsets(counts, spec);
}

}  // namespace fairbc
