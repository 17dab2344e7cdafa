#include "core/result_sink.h"

#include <algorithm>

#include "core/search_context.h"

namespace fairbc {

void TopKKeeper::Offer(const Biclique& b) {
  std::pair<std::uint64_t, Biclique> cand(
      RankValue(b.upper.size(), b.lower.size(), rank_), b);
  if (entries_.size() >= k_ && !Better(cand, entries_.back())) return;
  auto pos = std::upper_bound(entries_.begin(), entries_.end(), cand, Better);
  entries_.insert(pos, std::move(cand));
  if (entries_.size() > k_) entries_.pop_back();
}

std::vector<Biclique> TopKKeeper::Take() {
  std::vector<Biclique> out;
  out.reserve(entries_.size());
  for (auto& entry : entries_) out.push_back(std::move(entry.second));
  entries_.clear();
  return out;
}

ChunkSink::ChunkSink(std::size_t chunk_results, FlushFn flush,
                     const SearchBudget* budget)
    : chunk_results_(chunk_results < 1 ? 1 : chunk_results),
      flush_(std::move(flush)), budget_(budget) {}

bool ChunkSink::Flush() {
  StreamCheckpoint checkpoint;
  checkpoint.results = results_;
  checkpoint.nodes = budget_ != nullptr ? budget_->nodes() : 0;
  ++chunks_;
  if (!flush_(writer_.Take(), checkpoint)) {
    aborted_ = true;
    return false;
  }
  return true;
}

bool ChunkSink::Accept(const Biclique& b) {
  if (aborted_) return false;
  writer_.Append(b);
  ++results_;
  if (writer_.count() >= chunk_results_) return Flush();
  return true;
}

void ChunkSink::Finish() {
  // The final flush always runs (even for an empty result set) so the
  // stream carries at least one chunk and its terminal checkpoint —
  // unless a mid-run flush already aborted.
  if (!aborted_ && (writer_.count() > 0 || chunks_ == 0)) Flush();
}

}  // namespace fairbc
