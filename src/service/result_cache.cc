#include "service/result_cache.h"

namespace fairbc {

ResultCache::ResultCache(std::size_t capacity, MetricsRegistry* metrics,
                         std::size_t biclique_byte_budget)
    : capacity_(capacity), payload_budget_(biclique_byte_budget) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  hits_ = metrics->GetCounter("fairbc_cache_hits_total",
                              "Result-cache lookups served from the cache.");
  misses_ = metrics->GetCounter("fairbc_cache_misses_total",
                                "Result-cache lookups that missed.");
  insertions_ = metrics->GetCounter("fairbc_cache_insertions_total",
                                    "Summaries inserted into the cache.");
  evictions_ = metrics->GetCounter("fairbc_cache_evictions_total",
                                   "LRU evictions from the cache.");
  payload_hits_ = metrics->GetCounter(
      "fairbc_cache_payload_hits_total",
      "Cache hits that also returned a retained result payload.");
  payload_evictions_ = metrics->GetCounter(
      "fairbc_cache_payload_evictions_total",
      "Retained result payloads shed for the byte budget (or evicted).");
  entries_ = metrics->GetGauge("fairbc_cache_entries",
                               "Summaries currently cached.");
  payload_bytes_gauge_ =
      metrics->GetGauge("fairbc_cache_payload_bytes",
                        "Encoded bytes of retained result payloads.");
}

std::size_t ResultCache::PayloadBytes(const std::vector<ChunkBody>& bodies) {
  std::size_t bytes = 0;
  for (const ChunkBody& body : bodies) bytes += body.bytes->size();
  return bytes;
}

void ResultCache::ShedPayload(CachedResult* entry) {
  if (entry->payload == nullptr) return;
  payload_bytes_ -= entry->payload_bytes;
  payload_bytes_gauge_->Add(-static_cast<std::int64_t>(entry->payload_bytes));
  payload_evictions_->Increment();
  entry->payload = nullptr;
  entry->payload_bytes = 0;
}

std::optional<QuerySummary> ResultCache::Lookup(const std::string& key,
                                                Payload* payload) {
  if (payload != nullptr) *payload = nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  // A disabled cache (capacity 0) still counts its misses: a server run
  // with --cache=0 must report the real lookup traffic, not zeros.
  if (capacity_ == 0) {
    misses_->Increment();
    return std::nullopt;
  }
  auto it = index_.find(key);
  if (it == index_.end()) {
    misses_->Increment();
    return std::nullopt;
  }
  hits_->Increment();
  lru_.splice(lru_.begin(), lru_, it->second);
  const CachedResult& cached = it->second->second;
  if (payload != nullptr && cached.payload != nullptr) {
    *payload = cached.payload;
    payload_hits_->Increment();
  }
  return cached.summary;
}

void ResultCache::Insert(const std::string& key, const QuerySummary& summary,
                         Payload payload) {
  if (capacity_ == 0) return;
  std::size_t payload_bytes = 0;
  if (payload != nullptr) {
    payload_bytes = PayloadBytes(*payload);
    // A payload the whole budget cannot hold is never retained (and a
    // zero budget retains nothing).
    if (payload_bytes > payload_budget_) {
      payload = nullptr;
      payload_bytes = 0;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  insertions_->Increment();
  auto it = index_.find(key);
  if (it != index_.end()) {
    ShedPayload(&it->second->second);
    it->second->second.summary = summary;
    it->second->second.payload = std::move(payload);
    it->second->second.payload_bytes = payload_bytes;
    payload_bytes_ += payload_bytes;
    if (payload_bytes > 0) {
      payload_bytes_gauge_->Add(static_cast<std::int64_t>(payload_bytes));
    }
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    CachedResult cached;
    cached.summary = summary;
    cached.payload = std::move(payload);
    cached.payload_bytes = payload_bytes;
    payload_bytes_ += payload_bytes;
    if (payload_bytes > 0) {
      payload_bytes_gauge_->Add(static_cast<std::int64_t>(payload_bytes));
    }
    lru_.emplace_front(key, std::move(cached));
    index_[key] = lru_.begin();
    entries_->Increment();
    if (lru_.size() > capacity_) {
      ShedPayload(&lru_.back().second);
      index_.erase(lru_.back().first);
      lru_.pop_back();
      evictions_->Increment();
      entries_->Decrement();
    }
  }
  // Byte budget: shed payloads LRU-first (entries keep their summaries)
  // until the retained bytes fit. The just-inserted payload sits at the
  // front, so it is shed last — only when it alone still overflows, which
  // the pre-insert size check already rules out.
  if (payload_bytes_ > payload_budget_) {
    for (auto rit = lru_.rbegin();
         rit != lru_.rend() && payload_bytes_ > payload_budget_; ++rit) {
      ShedPayload(&rit->second);
    }
  }
}

ResultCache::Telemetry ResultCache::telemetry() const {
  std::lock_guard<std::mutex> lock(mu_);
  Telemetry t;
  t.hits = hits_->Value();
  t.misses = misses_->Value();
  t.insertions = insertions_->Value();
  t.evictions = evictions_->Value();
  t.payload_hits = payload_hits_->Value();
  t.payload_evictions = payload_evictions_->Value();
  t.entries = lru_.size();
  t.capacity = capacity_;
  t.payload_bytes = payload_bytes_;
  t.payload_byte_budget = payload_budget_;
  return t;
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_->Add(-static_cast<std::int64_t>(lru_.size()));
  payload_bytes_gauge_->Add(-static_cast<std::int64_t>(payload_bytes_));
  payload_bytes_ = 0;
  lru_.clear();
  index_.clear();
  hits_->Reset();
  misses_->Reset();
  insertions_->Reset();
  evictions_->Reset();
  payload_hits_->Reset();
  payload_evictions_->Reset();
}

}  // namespace fairbc
