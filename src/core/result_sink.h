// Result sinks beyond CollectSink/CountSink (core/enumerate.h): top-k
// selection (TopKKeeper, TopKSink) and chunked streaming (ChunkSink,
// StreamCheckpoint), whose chunks are compact encoded bodies
// (core/chunk_body.h). Each is a ResultSink that a caller hands to
// RunEnumeration (core/pipeline.h) through AsSink(); its emission stage
// (BlockEmitter, core/pipeline.cc) then calls it with one remapped
// Biclique at a time. The query runner (RunQuery, service/query.h)
// builds every query's output path — for the executor and the CLI —
// from these.
//
// Unless a class documents otherwise, sinks here follow the BicliqueSink
// threading contract: RunEnumeration's emission stage hands them whole
// blocks of results under one lock and calls them one result at a time,
// so they need no locking of their own, but calls may arrive from
// different worker threads over time.

#ifndef FAIRBC_CORE_RESULT_SINK_H_
#define FAIRBC_CORE_RESULT_SINK_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/chunk_body.h"
#include "core/enumerate.h"

namespace fairbc {

class SearchBudget;

/// Keeps the k best bicliques under a TopKRank, best first. Ties in rank
/// value break by the canonical Biclique order (smaller wins), so the
/// kept set — and Take()'s order — is a pure function of the offered
/// *set*, independent of offer order. Not internally synchronized.
class TopKKeeper {
 public:
  TopKKeeper(std::uint32_t k, TopKRank rank)
      : k_(k < 1 ? 1 : k), rank_(rank) {}

  /// Offers one candidate; keeps it iff it beats the current k-th best
  /// (or the keeper is not yet full).
  void Offer(const Biclique& b);

  bool full() const { return entries_.size() >= k_; }
  std::size_t size() const { return entries_.size(); }
  std::uint32_t k() const { return k_; }
  TopKRank rank() const { return rank_; }

  /// Rank value of the current k-th best; only meaningful when full().
  std::uint64_t KthValue() const {
    return entries_.empty() ? 0 : entries_.back().first;
  }

  /// Moves the kept bicliques out, best first. The keeper is empty after.
  std::vector<Biclique> Take();

 private:
  static bool Better(const std::pair<std::uint64_t, Biclique>& a,
                     const std::pair<std::uint64_t, Biclique>& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  }

  const std::uint32_t k_;
  const TopKRank rank_;
  std::vector<std::pair<std::uint64_t, Biclique>> entries_;
};

/// Top-k sink stage: feeds every accepted result into a TopKKeeper and
/// publishes the keeper's k-th best into a TopKPruneBound that the
/// engines consult for branch-and-bound cuts (wire prune_bound() into
/// EnumOptions::topk). After the run, Finish() then Take() yield the
/// final ranking. Follows the serialized-sink contract (no locking; the
/// prune bound itself is atomic and safe for concurrent engine reads).
class TopKSink final : public ResultSink {
 public:
  TopKSink(std::uint32_t k, TopKRank rank)
      : keeper_(k, rank), bound_(rank) {}

  bool Accept(const Biclique& b) override {
    keeper_.Offer(b);
    if (keeper_.full()) bound_.Publish(keeper_.KthValue());
    return true;
  }

  const TopKPruneBound* prune_bound() const { return &bound_; }
  const TopKKeeper& keeper() const { return keeper_; }
  std::vector<Biclique> Take() { return keeper_.Take(); }

 private:
  TopKKeeper keeper_;
  TopKPruneBound bound_;
};

/// Progress marker attached to every flushed chunk: how far the run had
/// advanced when the chunk was cut. `nodes` reads the shared SearchBudget
/// when one is attached (0 otherwise), giving clients a cooperative
/// checkpoint — a budgeted query that streamed n chunks and then reported
/// budget_exhausted can be re-issued with the remaining budget.
struct StreamCheckpoint {
  std::uint64_t results = 0;  ///< results emitted up to and incl. chunk.
  std::uint64_t nodes = 0;    ///< search nodes accounted so far.
};

/// Bounded-buffer streaming stage: encodes accepted results straight
/// into a compact chunk body (core/chunk_body.h) and hands `flush` each
/// body of at most `chunk_results` results, with the final (possibly
/// short, possibly empty-run) flush driven by Finish(). The body is the
/// form the result keeps all the way to the client: the executor's
/// backlog, the payload cache and the wire share its bytes. The flush
/// callback returning false aborts the enumeration, exactly like a sink
/// would. Follows the serialized-sink contract — the callback runs on
/// whichever worker thread emitted the chunk-completing result, one call
/// at a time.
class ChunkSink final : public ResultSink {
 public:
  /// Receives one body (moved) and its checkpoint; false aborts the run.
  using FlushFn =
      std::function<bool(ChunkBody&& chunk,
                         const StreamCheckpoint& checkpoint)>;

  /// `budget` (optional) supplies StreamCheckpoint::nodes; it must
  /// outlive the sink.
  ChunkSink(std::size_t chunk_results, FlushFn flush,
            const SearchBudget* budget = nullptr);

  bool Accept(const Biclique& b) override;

  /// Flushes the remainder. Never drops results: after Finish, every
  /// accepted result has been handed to the callback (unless a flush
  /// aborted the run).
  void Finish() override;

  std::uint64_t results() const { return results_; }
  std::uint64_t chunks() const { return chunks_; }

 private:
  bool Flush();

  const std::size_t chunk_results_;
  const FlushFn flush_;
  const SearchBudget* budget_;
  ChunkBodyWriter writer_;
  std::uint64_t results_ = 0;
  std::uint64_t chunks_ = 0;
  bool aborted_ = false;
};

}  // namespace fairbc

#endif  // FAIRBC_CORE_RESULT_SINK_H_
