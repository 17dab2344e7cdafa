#include "service/wire.h"

#include <bit>
#include <cstring>

#include "core/chunk_body.h"

namespace fairbc {
namespace wire {

namespace {

template <typename T>
void AppendLE(std::string* out, T v) {
  char bytes[sizeof(T)];
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  out->append(bytes, sizeof(T));
}

template <typename T>
bool ReadLE(std::string_view data, std::size_t* off, T* v) {
  if (data.size() - *off < sizeof(T)) return false;
  T value = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    value |= static_cast<T>(static_cast<unsigned char>(data[*off + i]))
             << (8 * i);
  }
  *off += sizeof(T);
  *v = value;
  return true;
}

}  // namespace

bool IsRequestOpcode(Opcode op) {
  switch (op) {
    case Opcode::kPing:
    case Opcode::kCommand:
    case Opcode::kQuery:
      return true;
    default:
      return false;
  }
}

bool IsResponseOpcode(Opcode op) {
  switch (op) {
    case Opcode::kPong:
    case Opcode::kReply:
    case Opcode::kReplyChunk:
    case Opcode::kReplyEnd:
    case Opcode::kError:
      return true;
    default:
      return false;
  }
}

const char* ToString(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest:
      return "bad_request";
    case ErrorCode::kBusy:
      return "busy";
    case ErrorCode::kTooLarge:
      return "too_large";
    case ErrorCode::kNotFound:
      return "not_found";
    case ErrorCode::kInternal:
      return "internal";
    case ErrorCode::kBadFrame:
      return "bad_frame";
    case ErrorCode::kUnsupportedVersion:
      return "unsupported_version";
  }
  return "unknown";
}

void AppendU8(std::string* out, std::uint8_t v) { AppendLE(out, v); }
void AppendU16(std::string* out, std::uint16_t v) { AppendLE(out, v); }
void AppendU32(std::string* out, std::uint32_t v) { AppendLE(out, v); }
void AppendU64(std::string* out, std::uint64_t v) { AppendLE(out, v); }

void AppendF64(std::string* out, double v) {
  AppendLE(out, std::bit_cast<std::uint64_t>(v));
}

void AppendString16(std::string* out, std::string_view s) {
  FAIRBC_CHECK(s.size() <= 0xFFFF);
  AppendU16(out, static_cast<std::uint16_t>(s.size()));
  out->append(s.data(), s.size());
}

bool Reader::ReadU8(std::uint8_t* v) { return ReadLE(data_, &off_, v); }
bool Reader::ReadU16(std::uint16_t* v) { return ReadLE(data_, &off_, v); }
bool Reader::ReadU32(std::uint32_t* v) { return ReadLE(data_, &off_, v); }
bool Reader::ReadU64(std::uint64_t* v) { return ReadLE(data_, &off_, v); }

bool Reader::ReadF64(double* v) {
  std::uint64_t bits = 0;
  if (!ReadLE(data_, &off_, &bits)) return false;
  *v = std::bit_cast<double>(bits);
  return true;
}

bool Reader::ReadString16(std::string* v) {
  std::uint16_t len = 0;
  if (!ReadLE(data_, &off_, &len)) return false;
  if (data_.size() - off_ < len) return false;
  v->assign(data_.data() + off_, len);
  off_ += len;
  return true;
}

namespace {

void AppendHeader(std::string* out, std::uint8_t version, Opcode opcode,
                  std::uint64_t request_id, std::size_t payload_len) {
  FAIRBC_CHECK(payload_len <= 0xFFFFFFFFu);
  AppendU16(out, kMagic);
  AppendU8(out, version);
  AppendU8(out, static_cast<std::uint8_t>(opcode));
  AppendU64(out, request_id);
  AppendU32(out, static_cast<std::uint32_t>(payload_len));
}

}  // namespace

void EncodeFrame(const Frame& frame, std::string* out) {
  AppendHeader(out, frame.version, frame.opcode, frame.request_id,
               frame.payload.size());
  out->append(frame.payload);
}

void AppendFrameHeader(std::string* out, Opcode opcode,
                       std::uint64_t request_id, std::size_t payload_len) {
  AppendHeader(out, kVersion, opcode, request_id, payload_len);
}

DecodeResult DecodeFrame(std::string_view buf, std::size_t max_payload,
                         Frame* out, std::size_t* consumed) {
  *consumed = 0;
  // Reject on the earliest byte that can prove corruption, so a line
  // client (or garbage) is turned away before a full header accumulates.
  if (!buf.empty() && !LooksBinary(static_cast<unsigned char>(buf[0]))) {
    return {FrameStatus::kBad, ErrorCode::kBadFrame, "bad frame magic"};
  }
  if (buf.size() >= 2) {
    std::size_t off = 0;
    std::uint16_t magic = 0;
    ReadLE(buf, &off, &magic);
    if (magic != kMagic) {
      return {FrameStatus::kBad, ErrorCode::kBadFrame, "bad frame magic"};
    }
  }
  if (buf.size() < kHeaderBytes) return {FrameStatus::kNeedMore, {}, {}};

  std::size_t off = 2;
  std::uint8_t version = 0, opcode = 0;
  std::uint64_t request_id = 0;
  std::uint32_t payload_len = 0;
  ReadLE(buf, &off, &version);
  ReadLE(buf, &off, &opcode);
  ReadLE(buf, &off, &request_id);
  ReadLE(buf, &off, &payload_len);
  if (version != kVersion) {
    return {FrameStatus::kBad, ErrorCode::kUnsupportedVersion,
            "unsupported frame version " + std::to_string(version)};
  }
  if (!IsRequestOpcode(static_cast<Opcode>(opcode)) &&
      !IsResponseOpcode(static_cast<Opcode>(opcode))) {
    return {FrameStatus::kBad, ErrorCode::kBadFrame,
            "unknown opcode " + std::to_string(opcode)};
  }
  // The length check precedes any buffering decision: a hostile prefix
  // ("send 4 GiB") is refused from the 16 header bytes alone.
  if (payload_len > max_payload) {
    return {FrameStatus::kBad, ErrorCode::kTooLarge,
            "frame payload of " + std::to_string(payload_len) +
                " bytes exceeds the " + std::to_string(max_payload) +
                "-byte limit"};
  }
  if (buf.size() - kHeaderBytes < payload_len) {
    return {FrameStatus::kNeedMore, {}, {}};
  }
  out->version = version;
  out->opcode = static_cast<Opcode>(opcode);
  out->request_id = request_id;
  out->payload.assign(buf.data() + kHeaderBytes, payload_len);
  *consumed = kHeaderBytes + payload_len;
  return {FrameStatus::kOk, {}, {}};
}

std::string EncodeQueryPayload(const QueryRequest& request, bool stream) {
  std::string out;
  AppendString16(&out, request.graph);
  AppendU8(&out, EnumIndex(request.model));
  AppendU8(&out, EnumIndex(request.algo));
  AppendU32(&out, request.params.alpha);
  AppendU32(&out, request.params.beta);
  AppendU32(&out, request.params.delta);
  AppendF64(&out, request.params.theta);
  AppendU8(&out, EnumIndex(request.options.ordering));
  AppendU8(&out, EnumIndex(request.options.pruning));
  AppendF64(&out, request.options.time_budget_seconds);
  AppendU64(&out, request.options.node_budget);
  AppendU32(&out, request.options.num_threads);
  AppendU8(&out, static_cast<std::uint8_t>((request.use_cache ? 1 : 0) |
                                           (stream ? 2 : 0)));
  // Extension tail (always emitted by this encoder; decoders treat its
  // absence — the short form older encoders wrote — as all defaults).
  AppendU32(&out, request.top_k);
  AppendU8(&out, EnumIndex(request.rank));
  AppendString16(&out, request.request_id);
  return out;
}

namespace {

/// Sets `*out` to the entry at wire byte `index` of its name table.
template <RequestEnum E>
Status ReadEnumByte(std::uint8_t index, const char* field, E* out) {
  const std::optional<E> value = EnumAt<E>(index);
  if (!value) return Status::InvalidArgument(std::string("bad ") + field +
                                             " byte");
  *out = *value;
  return Status::OK();
}

}  // namespace

Result<QueryRequest> DecodeQueryPayload(std::string_view payload,
                                        bool* stream) {
  Reader r(payload);
  QueryRequest req;
  std::uint8_t model = 0, algo = 0, ordering = 0, pruning = 0, flags = 0;
  if (stream != nullptr) *stream = false;
  if (!r.ReadString16(&req.graph) || !r.ReadU8(&model) || !r.ReadU8(&algo) ||
      !r.ReadU32(&req.params.alpha) || !r.ReadU32(&req.params.beta) ||
      !r.ReadU32(&req.params.delta) || !r.ReadF64(&req.params.theta) ||
      !r.ReadU8(&ordering) || !r.ReadU8(&pruning) ||
      !r.ReadF64(&req.options.time_budget_seconds) ||
      !r.ReadU64(&req.options.node_budget) ||
      !r.ReadU32(&req.options.num_threads) || !r.ReadU8(&flags)) {
    return Status::InvalidArgument("truncated query payload");
  }
  // Extension tail: end-of-payload here is a legacy frame (defaults);
  // anything else must be the complete tail, strictly consumed.
  std::uint8_t rank = 0;
  if (!r.AtEnd()) {
    if (!r.ReadU32(&req.top_k) || !r.ReadU8(&rank) ||
        !r.ReadString16(&req.request_id)) {
      return Status::InvalidArgument("truncated query payload tail");
    }
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after query payload");
  }
  if (req.graph.empty()) {
    return Status::InvalidArgument("query needs a graph name");
  }
  for (Status st : {ReadEnumByte(model, "model", &req.model),
                    ReadEnumByte(algo, "algo", &req.algo),
                    ReadEnumByte(ordering, "ordering", &req.options.ordering),
                    ReadEnumByte(pruning, "pruning", &req.options.pruning),
                    ReadEnumByte(rank, "rank", &req.rank),
                    CheckQueryRequest(req)}) {
    if (!st.ok()) return st;
  }
  req.use_cache = (flags & 1) != 0;
  if (stream != nullptr) *stream = (flags & 2) != 0;
  if (!ValidRequestId(req.request_id)) {
    return Status::InvalidArgument(
        "request id must be at most 128 bytes of printable ASCII with no "
        "space, quote or backslash");
  }
  return req;
}

void AppendChunkPayload(std::string* out, std::uint64_t seq,
                        std::uint64_t results_so_far,
                        std::uint64_t nodes_so_far, std::string_view body) {
  AppendU64(out, seq);
  AppendU64(out, results_so_far);
  AppendU64(out, nodes_so_far);
  out->append(body.data(), body.size());
}

std::string EncodeChunkPayload(std::uint64_t seq, std::uint64_t results_so_far,
                               std::uint64_t nodes_so_far,
                               const std::vector<Biclique>& bicliques) {
  std::string out;
  AppendChunkPayload(&out, seq, results_so_far, nodes_so_far,
                     *EncodeChunkBody(bicliques).bytes);
  return out;
}

Result<ChunkPayload> DecodeChunkPayload(std::string_view payload) {
  Reader r(payload);
  ChunkPayload chunk;
  if (!r.ReadU64(&chunk.seq) || !r.ReadU64(&chunk.results_so_far) ||
      !r.ReadU64(&chunk.nodes_so_far)) {
    return Status::InvalidArgument("truncated chunk payload");
  }
  Status st =
      DecodeChunkBody(payload.substr(kChunkHeaderBytes), &chunk.bicliques);
  if (!st.ok()) return st;
  return chunk;
}

std::string EncodeErrorPayload(ErrorCode code, std::string_view message) {
  std::string out;
  AppendU16(&out, static_cast<std::uint16_t>(code));
  out.append(message.data(), message.size());
  return out;
}

Status DecodeErrorPayload(std::string_view payload, ErrorCode* code,
                          std::string* message) {
  Reader r(payload);
  std::uint16_t raw = 0;
  if (!r.ReadU16(&raw)) {
    return Status::CorruptInput("error payload shorter than its code");
  }
  *code = static_cast<ErrorCode>(raw);
  message->assign(payload.substr(2));
  return Status::OK();
}

}  // namespace wire
}  // namespace fairbc
