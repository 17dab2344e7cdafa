#ifndef FAIRBC_SERVICE_RESULT_CACHE_H_
#define FAIRBC_SERVICE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/chunk_body.h"
#include "obs/metrics.h"
#include "service/query.h"

namespace fairbc {

/// Thread-safe LRU cache of query summaries, keyed on the canonical
/// (graph version, model, parameters) string (CanonicalCacheKey). The
/// parameter-sweep workloads (the fig2/fig5/fig7 shape) re-issue
/// near-identical queries, so even a small cache absorbs most repeats.
/// Capacity 0 disables the cache (every lookup misses, inserts drop).
///
/// Entries may additionally retain the result set as the encoded chunk
/// bodies a stream of it carries (core/chunk_body.h; shared, immutable)
/// up to `biclique_byte_budget` encoded bytes across the cache, so
/// repeated include_bicliques / streaming queries skip the engines
/// entirely: a stream replays the bodies as they are, a collecting query
/// decodes them. Payloads are dropped LRU-first when the budget is exceeded
/// — the summary always survives its payload. Budget 0 disables payload
/// retention (summary-only, the pre-streaming behavior).
///
/// Graph versions are content fingerprints, so replacing a catalog entry
/// with different content naturally invalidates its cached summaries —
/// the stale keys simply age out of the LRU list.
///
/// All telemetry lives in a MetricsRegistry (fairbc_cache_* counters and
/// the fairbc_cache_entries gauge) — the registry is the single source
/// of truth; telemetry() and the `cache` JSON read through it. Pass the
/// process registry to fold this cache into its Prometheus scrape, or
/// nothing for a private registry (exact per-instance counts in tests).
class ResultCache {
 public:
  /// Shared immutable result payload retained alongside a summary: the
  /// result set's chunk bodies, in stream order.
  using Payload = std::shared_ptr<const std::vector<ChunkBody>>;

  explicit ResultCache(std::size_t capacity,
                       MetricsRegistry* metrics = nullptr,
                       std::size_t biclique_byte_budget = 0);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the cached summary and refreshes its recency, or nullopt.
  /// When `payload` is non-null it receives the retained bodies (null
  /// when the entry has none) — a summary hit with a null payload still
  /// needs the engines if the caller wants the bicliques themselves.
  std::optional<QuerySummary> Lookup(const std::string& key,
                                     Payload* payload = nullptr);

  /// Inserts or refreshes `key`; evicts the least-recently-used entry
  /// when over capacity. A non-null `payload` is retained when it fits
  /// the byte budget (older payloads are shed LRU-first to make room; a
  /// payload larger than the whole budget is simply not retained).
  void Insert(const std::string& key, const QuerySummary& summary,
              Payload payload = nullptr);

  /// Hit/miss/eviction counters since construction (or the last Clear),
  /// read from the registry.
  struct Telemetry {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t payload_hits = 0;
    std::uint64_t payload_evictions = 0;
    std::size_t entries = 0;
    std::size_t capacity = 0;
    std::size_t payload_bytes = 0;
    std::size_t payload_byte_budget = 0;

    double HitRate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };
  Telemetry telemetry() const;

  /// Drops all entries and resets the counters.
  void Clear();

  std::size_t capacity() const { return capacity_; }
  std::size_t biclique_byte_budget() const { return payload_budget_; }

  /// Retained size of a payload: its encoded body bytes.
  static std::size_t PayloadBytes(const std::vector<ChunkBody>& bodies);

 private:
  struct CachedResult {
    QuerySummary summary;
    Payload payload;             ///< null when not retained.
    std::size_t payload_bytes = 0;
  };
  using Entry = std::pair<std::string, CachedResult>;

  /// Drops the payload of `entry` (mu_ held).
  void ShedPayload(CachedResult* entry);

  const std::size_t capacity_;
  const std::size_t payload_budget_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  Counter* hits_;
  Counter* misses_;
  Counter* insertions_;
  Counter* evictions_;
  Counter* payload_hits_;
  Counter* payload_evictions_;
  Gauge* entries_;
  Gauge* payload_bytes_gauge_;
  mutable std::mutex mu_;
  std::size_t payload_bytes_ = 0;  ///< retained across all entries.
  std::list<Entry> lru_;  ///< front = most recently used.
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
};

}  // namespace fairbc

#endif  // FAIRBC_SERVICE_RESULT_CACHE_H_
