#ifndef FAIRBC_CORE_REDUCTION_CACHE_H_
#define FAIRBC_CORE_REDUCTION_CACHE_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>

#include "core/enumerate.h"
#include "core/reduction_context.h"
#include "graph/bipartite_graph.h"
#include "obs/metrics.h"

namespace fairbc {

/// One completed graph reduction (FCore/BFCore or CFCore/BCFCore plus
/// compaction): the compacted survivor graph the engines search, the maps
/// back to the input graph's ids, and what producing it cost. A pure
/// function of the graph, the fair side(s), alpha, beta and the pruning
/// level — never of delta, theta, the engine, top-k, the ordering or the
/// thread count (the masks are byte-identical at every thread count).
struct Reduction {
  BipartiteGraph graph;
  IdMaps maps;
  /// Wall clock of the whole reduction, compaction included
  /// (EnumStats::prune_seconds), and its construct/color/peel split.
  double seconds = 0.0;
  ReductionPhaseTimes times;
  /// PruneResult::peak_struct_bytes of the reduction run.
  std::size_t peak_struct_bytes = 0;

  /// Bytes the value holds: the compacted CSR arrays and both id maps.
  std::size_t MemoryBytes() const;
};

/// Everything a Reduction depends on besides the graph content, which
/// `graph_version` (a content fingerprint, CatalogEntry::version) names.
struct ReductionKey {
  std::uint64_t graph_version = 0;
  bool bi_side = false;
  std::uint32_t alpha = 0;
  std::uint32_t beta = 0;
  PruningLevel pruning = PruningLevel::kColorful;

  auto operator<=>(const ReductionKey&) const = default;
};

/// Thread-safe LRU cache of completed reductions under a byte budget
/// (Reduction::MemoryBytes). Values are shared_ptr<const>, so evicting an
/// entry never frees a graph a run is still searching. An entry larger
/// than the whole budget is never kept. Concurrent misses on one key may
/// both reduce; the first insert wins and later ones are dropped. Graph
/// versions are content fingerprints, so entries of replaced graphs are
/// never served for new content; they age out under the budget.
///
/// Telemetry lives in the MetricsRegistry (`metrics`; null = a private
/// one): fairbc_reduction_cache_hits_total, _misses_total,
/// _evictions_total and the gauge fairbc_reduction_cache_bytes.
class ReductionCache {
 public:
  explicit ReductionCache(std::size_t byte_budget,
                          MetricsRegistry* metrics = nullptr);

  ReductionCache(const ReductionCache&) = delete;
  ReductionCache& operator=(const ReductionCache&) = delete;

  /// The cached reduction for `key` (refreshing its recency), or null.
  std::shared_ptr<const Reduction> Lookup(const ReductionKey& key);

  /// Keeps `reduction` under `key` unless the key is already resident or
  /// the value alone exceeds the budget; evicts least-recently-used
  /// entries until the bytes fit.
  void Insert(const ReductionKey& key,
              std::shared_ptr<const Reduction> reduction);

  struct Telemetry {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t bytes = 0;
    std::size_t entries = 0;
  };
  Telemetry telemetry() const;

 private:
  struct Entry {
    ReductionKey key;
    std::shared_ptr<const Reduction> reduction;
    std::size_t bytes = 0;
  };

  const std::size_t byte_budget_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  Counter* hits_;
  Counter* misses_;
  Counter* evictions_;
  Gauge* bytes_gauge_;
  mutable std::mutex mu_;
  std::size_t bytes_ = 0;  ///< held by all entries; guarded by mu_.
  std::list<Entry> lru_;   ///< front = most recently used.
  std::map<ReductionKey, std::list<Entry>::iterator> index_;
};

/// What EnumOptions::reductions points at: the cache a run's pipeline
/// looks its reduction up in, and the version of the graph the run is
/// given. The caller vouches that the version names that graph's content.
struct ReductionCacheRef {
  ReductionCache* cache = nullptr;
  std::uint64_t graph_version = 0;
};

}  // namespace fairbc

#endif  // FAIRBC_CORE_REDUCTION_CACHE_H_
