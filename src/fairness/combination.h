#ifndef FAIRBC_FAIRNESS_COMBINATION_H_
#define FAIRBC_FAIRNESS_COMBINATION_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/types.h"
#include "fairness/fair_vector.h"
#include "graph/bipartite_graph.h"

namespace fairbc {

/// Ground set of a maximal-fair-subset walk: its vertices grouped by
/// attribute class (ascending within each class) and the maximal fair size
/// vectors of the class sizes (MaximalFairVectors).
struct FairSubsetPlan {
  std::vector<VertexId> members;
  /// num_attrs + 1 offsets: class a occupies members[class_begin[a],
  /// class_begin[a + 1]).
  std::vector<std::uint32_t> class_begin;
  std::vector<SizeVector> targets;
};

/// Builds the walk plan of `ground` (a vertex set on `side` of `g`).
FairSubsetPlan PlanMaximalFairSubsets(const BipartiteGraph& g, Side side,
                                      std::span<const VertexId> ground,
                                      const FairnessSpec& spec);

namespace internal {

// Chooses the `slot`-th vertex of class `a` from members[from..], then
// descends; classes whose quota is filled are skipped. False = stopped.
template <typename Visitor>
bool WalkProduct(const FairSubsetPlan& plan, const SizeVector& t, AttrId a,
                 std::uint32_t slot, std::uint32_t from, std::uint64_t& leaves,
                 Visitor& visitor) {
  while (a < t.size() && slot == t[a]) {
    ++a;
    slot = 0;
    from = plan.class_begin[a];
  }
  if (a == t.size()) {
    ++leaves;
    return visitor.Leaf();
  }
  // Leave room for the quota's remaining slots.
  const std::uint32_t last = plan.class_begin[a + 1] - (t[a] - slot);
  for (std::uint32_t i = from; i <= last; ++i) {
    const VertexId v = plan.members[i];
    visitor.Push(v);
    const bool go = WalkProduct(plan, t, a, slot + 1, i + 1, leaves, visitor);
    visitor.Pop(v);
    if (!go) return false;
  }
  return true;
}

}  // namespace internal

/// Paper Alg. 7 (`Combination`) and its CombinationPro extension as one
/// depth-first walk: for each maximal fair size vector t of the plan, the
/// Cartesian product of per-class t_i-subsets (prod_i C(c_i, t_i) subsets)
/// is built one vertex at a time, class by class and ascending within a
/// class, and every move is reported to `visitor`:
///
///   void Push(VertexId v);  // v appended to the current prefix
///   void Pop(VertexId v);   // v, the last pushed vertex, removed again
///   bool Leaf();            // the prefix is a maximal fair subset;
///                           // false stops the walk
///
/// Consecutive subsets share their longest common prefix, so state the
/// visitor folds per pushed vertex is computed once per prefix, not once
/// per subset. With `spec.theta > 0` this is CombinationPro. Returns the
/// number of Leaf calls.
template <typename Visitor>
std::uint64_t WalkMaximalFairSubsets(const FairSubsetPlan& plan,
                                     Visitor& visitor) {
  std::uint64_t leaves = 0;
  for (const SizeVector& t : plan.targets) {
    if (!internal::WalkProduct(plan, t, 0, 0, 0, leaves, visitor)) break;
  }
  return leaves;
}

/// Callback receiving one maximal fair subset. Return false to stop the
/// enumeration early.
using SubsetSink = std::function<bool(std::span<const VertexId>)>;

/// Convenience form of WalkMaximalFairSubsets: streams every maximal fair
/// subset of `ground` as a sorted vertex-id array. Returns the number
/// emitted (which may be cut short by the sink).
std::uint64_t EnumerateMaximalFairSubsets(const BipartiteGraph& g, Side side,
                                          std::span<const VertexId> ground,
                                          const FairnessSpec& spec,
                                          const SubsetSink& sink);

/// Number of subsets EnumerateMaximalFairSubsets would emit, without
/// materializing them. Saturates at UINT64_MAX.
std::uint64_t CountMaximalFairSubsetsOf(const BipartiteGraph& g, Side side,
                                        std::span<const VertexId> ground,
                                        const FairnessSpec& spec);

}  // namespace fairbc

#endif  // FAIRBC_FAIRNESS_COMBINATION_H_
