#include "core/reduction_cache.h"

#include <utility>

namespace fairbc {

std::size_t Reduction::MemoryBytes() const {
  return graph.MemoryBytes() +
         (maps.upper_to_parent.size() + maps.lower_to_parent.size()) *
             sizeof(VertexId);
}

ReductionCache::ReductionCache(std::size_t byte_budget,
                               MetricsRegistry* metrics)
    : byte_budget_(byte_budget) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  hits_ = metrics->GetCounter("fairbc_reduction_cache_hits_total",
                              "Graph reductions served from the cache.");
  misses_ = metrics->GetCounter("fairbc_reduction_cache_misses_total",
                                "Graph reductions computed on a cache miss.");
  evictions_ = metrics->GetCounter(
      "fairbc_reduction_cache_evictions_total",
      "Cached reductions evicted for the byte budget.");
  bytes_gauge_ = metrics->GetGauge("fairbc_reduction_cache_bytes",
                                   "Bytes held by cached reductions.");
}

std::shared_ptr<const Reduction> ReductionCache::Lookup(
    const ReductionKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    misses_->Increment();
    return nullptr;
  }
  hits_->Increment();
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->reduction;
}

void ReductionCache::Insert(const ReductionKey& key,
                            std::shared_ptr<const Reduction> reduction) {
  const std::size_t bytes = reduction->MemoryBytes();
  if (bytes > byte_budget_) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (index_.contains(key)) return;
  while (bytes_ + bytes > byte_budget_) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    bytes_gauge_->Add(-static_cast<std::int64_t>(victim.bytes));
    evictions_->Increment();
    index_.erase(victim.key);
    lru_.pop_back();
  }
  lru_.push_front(Entry{key, std::move(reduction), bytes});
  index_.emplace(key, lru_.begin());
  bytes_ += bytes;
  bytes_gauge_->Add(static_cast<std::int64_t>(bytes));
}

ReductionCache::Telemetry ReductionCache::telemetry() const {
  std::lock_guard<std::mutex> lock(mu_);
  Telemetry t;
  t.hits = hits_->Value();
  t.misses = misses_->Value();
  t.evictions = evictions_->Value();
  t.bytes = bytes_;
  t.entries = lru_.size();
  return t;
}

}  // namespace fairbc
