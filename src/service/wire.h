#ifndef FAIRBC_SERVICE_WIRE_H_
#define FAIRBC_SERVICE_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "service/query.h"

namespace fairbc {
namespace wire {

/// Length-prefixed little-endian binary framing for the fairbc server.
/// Both protocols share one port: the first byte of a connection decides —
/// kMagic's low byte (0xBC) is not printable ASCII, so no line-protocol
/// command can ever start a binary stream and vice versa.
///
/// Frame layout (all integers little-endian):
///
///   offset  size  field
///   0       2     magic        0xFBBC
///   2       1     version      kVersion (currently 2)
///   3       1     opcode       Opcode
///   4       8     request id   echoed verbatim in the response frame
///   12      4     payload len  bytes following the header
///   16      n     payload      opcode-specific
///
/// Responses are delivered in request order per connection (pipelining:
/// a client may send many frames before reading), and the request id is
/// echoed so clients can also match by id. Unknown versions and corrupt
/// headers are answered with one kError frame (ErrorCode::kBadFrame /
/// kUnsupportedVersion) before the connection closes — a parser can not
/// resynchronize inside a corrupt length-prefixed stream.
///
/// Version 2 carries kReplyChunk results as compact chunk bodies
/// (core/chunk_body.h) instead of version 1's raw u32 ids; a version 1
/// peer is answered with kUnsupportedVersion rather than misparsing one.

inline constexpr std::uint16_t kMagic = 0xFBBC;
inline constexpr std::uint8_t kVersion = 2;
inline constexpr std::size_t kHeaderBytes = 16;

/// True when a connection's first byte announces the binary protocol.
inline bool LooksBinary(unsigned char first_byte) {
  return first_byte == static_cast<unsigned char>(kMagic & 0xFF);
}

enum class Opcode : std::uint8_t {
  // Requests.
  kPing = 0x01,     ///< liveness probe; empty payload.
  kCommand = 0x02,  ///< payload: UTF-8 request line (line-protocol grammar).
  kQuery = 0x03,    ///< payload: packed QueryRequest (EncodeQueryPayload).
  // Responses (high bit set).
  kPong = 0x81,   ///< reply to kPing; empty payload.
  kReply = 0x82,  ///< payload: the JSON object the line protocol prints.
  /// One streamed slice of a query's result set (AppendChunkPayload).
  /// A streaming query is answered by zero or more kReplyChunk frames
  /// followed by exactly one kReplyEnd frame, all echoing the request id,
  /// delivered contiguously and in stream order — responses stay in
  /// request order per connection, so a pipelined stream never interleaves
  /// with other replies.
  kReplyChunk = 0x83,
  /// Final frame of a stream; payload is the same JSON object kReply
  /// would have carried (summary/digest/stats — no bicliques, those went
  /// through the chunks).
  kReplyEnd = 0x84,
  kError = 0x8F,  ///< payload: u16 ErrorCode + UTF-8 message.
};

/// True for opcodes a *client* may send (the server rejects responses
/// sent at it, and vice versa).
bool IsRequestOpcode(Opcode op);
bool IsResponseOpcode(Opcode op);

/// Typed error category carried by kError frames (and mirrored as the
/// "code" field of line-protocol error JSON).
enum class ErrorCode : std::uint16_t {
  kBadRequest = 1,          ///< malformed/out-of-range request contents.
  kBusy = 2,                ///< admission control: too many in-flight queries.
  kTooLarge = 3,            ///< request exceeds --max-request-bytes.
  kNotFound = 4,            ///< unknown graph/entry.
  kInternal = 5,            ///< server-side failure.
  kBadFrame = 6,            ///< corrupt frame (magic/opcode/length).
  kUnsupportedVersion = 7,  ///< frame version this server does not speak.
};

const char* ToString(ErrorCode code);

/// One decoded frame. `payload` is owned (copied out of the stream
/// buffer) so the connection may compact its read buffer immediately.
struct Frame {
  std::uint8_t version = kVersion;
  Opcode opcode = Opcode::kPing;
  std::uint64_t request_id = 0;
  std::string payload;
};

// --- primitive little-endian codec -----------------------------------------

void AppendU8(std::string* out, std::uint8_t v);
void AppendU16(std::string* out, std::uint16_t v);
void AppendU32(std::string* out, std::uint32_t v);
void AppendU64(std::string* out, std::uint64_t v);
void AppendF64(std::string* out, double v);
/// u16 length prefix + bytes; FAIRBC_CHECKs the string fits in 64 KiB.
void AppendString16(std::string* out, std::string_view s);

/// Bounds-checked forward reader over a payload. Every Read* returns
/// false (and leaves the output untouched) instead of reading past the
/// end, so truncated/corrupt payloads can never be UB.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ReadU8(std::uint8_t* v);
  bool ReadU16(std::uint16_t* v);
  bool ReadU32(std::uint32_t* v);
  bool ReadU64(std::uint64_t* v);
  bool ReadF64(double* v);
  bool ReadString16(std::string* v);

  std::size_t remaining() const { return data_.size() - off_; }
  bool AtEnd() const { return off_ == data_.size(); }

 private:
  std::string_view data_;
  std::size_t off_ = 0;
};

// --- frame codec ------------------------------------------------------------

/// Serializes `frame` (header + payload) onto `out`.
void EncodeFrame(const Frame& frame, std::string* out);

/// Appends a kVersion frame header announcing `payload_len` bytes; the
/// caller appends exactly that many payload bytes after it.
void AppendFrameHeader(std::string* out, Opcode opcode,
                       std::uint64_t request_id, std::size_t payload_len);

enum class FrameStatus {
  kOk,        ///< one complete frame decoded; `consumed` bytes used.
  kNeedMore,  ///< the buffer holds a valid prefix; read more bytes.
  kBad,       ///< unrecoverable: wrong magic/version/opcode or oversized.
};

struct DecodeResult {
  FrameStatus status = FrameStatus::kBad;
  /// Set when status == kBad: what to tell the client before closing.
  ErrorCode code = ErrorCode::kBadFrame;
  std::string message;
};

/// Decodes the frame starting at `buf[0]`. Payloads longer than
/// `max_payload` are rejected as kBad/kTooLarge *from the header alone*,
/// so a hostile length prefix can never drive buffering or allocation.
DecodeResult DecodeFrame(std::string_view buf, std::size_t max_payload,
                         Frame* out, std::size_t* consumed);

// --- opcode payloads --------------------------------------------------------

/// Packed QueryRequest payload for Opcode::kQuery:
///
///   u16+bytes graph      catalog name
///   u8        model      index in kModelNames (service/query.h)
///   u8        algo       index in kAlgoNames
///   u32       alpha, beta, delta
///   f64       theta
///   u8        ordering   index in kOrderingNames
///   u8        pruning    index in kPruningNames
///   f64       time budget seconds (0 = unlimited)
///   u64       node budget (0 = unlimited)
///   u32       threads
///   u8        flags      bit0 = use_cache, bit1 = stream
///
/// followed by an OPTIONAL extension tail (absent in the short form older
/// encoders wrote — the decoder treats end-of-payload here as all defaults):
///
///   u32       top_k      0 = full enumeration
///   u8        rank       index in kRankNames
///   u16+bytes request id correlation token (may be empty)
std::string EncodeQueryPayload(const QueryRequest& request,
                               bool stream = false);

/// Strictly validated inverse of EncodeQueryPayload: truncated or
/// trailing bytes, an enum byte past its name table, and numerics outside
/// their windows (CheckQueryRequest, service/query.h: the text doors'
/// windows and messages) all come back as InvalidArgument. `stream`
/// (nullable) receives the flags' stream bit.
Result<QueryRequest> DecodeQueryPayload(std::string_view payload,
                                        bool* stream = nullptr);

/// One decoded kReplyChunk payload.
struct ChunkPayload {
  std::uint64_t seq = 0;             ///< 1-based chunk index.
  std::uint64_t results_so_far = 0;  ///< results up to and incl. chunk.
  std::uint64_t nodes_so_far = 0;    ///< search-node checkpoint.
  std::vector<Biclique> bicliques;
};

/// kReplyChunk payload:
///
///   u64  seq, u64 results_so_far, u64 nodes_so_far
///   then one chunk body (core/chunk_body.h) to the end of the payload
inline constexpr std::size_t kChunkHeaderBytes = 24;

/// Appends a kReplyChunk payload carrying an already encoded `body`.
void AppendChunkPayload(std::string* out, std::uint64_t seq,
                        std::uint64_t results_so_far,
                        std::uint64_t nodes_so_far, std::string_view body);

/// Encodes `bicliques` as one body, then as a kReplyChunk payload.
std::string EncodeChunkPayload(std::uint64_t seq, std::uint64_t results_so_far,
                               std::uint64_t nodes_so_far,
                               const std::vector<Biclique>& bicliques);

/// Strict inverse of AppendChunkPayload (a truncated header and every
/// DecodeChunkBody rejection come back as InvalidArgument).
Result<ChunkPayload> DecodeChunkPayload(std::string_view payload);

/// kError payload: u16 code + UTF-8 message (rest of payload).
std::string EncodeErrorPayload(ErrorCode code, std::string_view message);
Status DecodeErrorPayload(std::string_view payload, ErrorCode* code,
                          std::string* message);

}  // namespace wire
}  // namespace fairbc

#endif  // FAIRBC_SERVICE_WIRE_H_
