// Compact chunk-body codec: the one encoding streamed results travel in,
// from ChunkSink (core/result_sink.h) through the executor's flight
// backlog, the payload cache and the server's reactor to the wire
// (service/wire.h kReplyChunk) — encoded once, never re-encoded.
//
// Body layout (all integers LEB128 varints, graph/varint_codec.h):
//
//   count                         results in the body
//   per result, upper side then lower side:
//     shared                      ids shared as a prefix with the
//                                 previous result's same side (0 for the
//                                 first result of a body)
//     rest                        ids after the shared prefix
//     rest x gap                  ascending ids as gaps: the first id of
//                                 a side is stored as itself when nothing
//                                 precedes it, every other id as
//                                 id - previous id - 1
//
// Consecutive results of FairBCEM++/BFairBCEM++ share long prefixes (the
// fair subsets of one maximal biclique keep its whole other side), so a
// result typically costs a few bytes. Every body decodes on its own: the
// prefix state resets at each body start.

#ifndef FAIRBC_CORE_CHUNK_BODY_H_
#define FAIRBC_CORE_CHUNK_BODY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/enumerate.h"

namespace fairbc {

/// One encoded chunk: the immutable body bytes, shared by everyone who
/// holds the chunk (flight backlog, subscribers, payload cache, reactor),
/// and the number of results in it.
struct ChunkBody {
  std::shared_ptr<const std::string> bytes;
  std::uint64_t count = 0;
};

/// Most ids one body may decode to. Shared prefixes let a few bytes stand
/// for many ids, so a hostile body is refused here instead of driving an
/// allocation quadratic in its size.
inline constexpr std::size_t kMaxChunkBodyIds = std::size_t{1} << 28;

/// Builds one body result by result. Reuses its buffers across bodies, so
/// appending allocates nothing once they have grown to a chunk's size.
/// Not synchronized.
class ChunkBodyWriter {
 public:
  /// Appends one result; both sides must be strictly ascending ids below
  /// kInvalidVertex (what every engine emits).
  void Append(const Biclique& b);

  std::uint64_t count() const { return count_; }

  /// Returns the finished body and starts an empty one.
  ChunkBody Take();

 private:
  void AppendSide(std::span<const VertexId> side, std::vector<VertexId>* prev);

  std::string records_;  ///< the body after its count.
  std::vector<VertexId> prev_upper_;
  std::vector<VertexId> prev_lower_;
  std::uint64_t count_ = 0;
};

/// Encodes `bicliques` as one body.
ChunkBody EncodeChunkBody(const std::vector<Biclique>& bicliques);

/// Strictly decodes one body, appending its results to `out`. Rejects
/// truncation, trailing bytes, a count or side length the remaining bytes
/// cannot hold, a shared prefix longer than the previous result's side,
/// an id at or past kInvalidVertex and a body decoding to more than
/// kMaxChunkBodyIds ids. On error `out` is left as it was.
Status DecodeChunkBody(std::string_view body, std::vector<Biclique>* out);

/// Decodes `bodies` in order, appending their results to `out`; stops at
/// the first body DecodeChunkBody rejects and returns its error.
Status DecodeChunkBodies(const std::vector<ChunkBody>& bodies,
                         std::vector<Biclique>* out);

}  // namespace fairbc

#endif  // FAIRBC_CORE_CHUNK_BODY_H_
