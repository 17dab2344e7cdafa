#include "core/chunk_body.h"

#include <algorithm>

#include "graph/varint_codec.h"

namespace fairbc {

void ChunkBodyWriter::AppendSide(std::span<const VertexId> side,
                                 std::vector<VertexId>* prev) {
  const std::size_t limit = std::min(side.size(), prev->size());
  std::size_t shared = 0;
  while (shared < limit && side[shared] == (*prev)[shared]) ++shared;
  AppendVarint(&records_, shared);
  AppendVarint(&records_, side.size() - shared);
  // `next` is the smallest id the following one may take.
  std::uint64_t next = shared == 0 ? 0 : std::uint64_t{side[shared - 1]} + 1;
  for (std::size_t i = shared; i < side.size(); ++i) {
    FAIRBC_CHECK(side[i] >= next && side[i] != kInvalidVertex);
    AppendVarint(&records_, side[i] - next);
    next = std::uint64_t{side[i]} + 1;
  }
  prev->assign(side.begin(), side.end());
}

void ChunkBodyWriter::Append(const Biclique& b) {
  AppendSide(b.upper, &prev_upper_);
  AppendSide(b.lower, &prev_lower_);
  ++count_;
}

ChunkBody ChunkBodyWriter::Take() {
  auto bytes = std::make_shared<std::string>();
  bytes->reserve(VarintSize(count_) + records_.size());
  AppendVarint(bytes.get(), count_);
  bytes->append(records_);
  ChunkBody body{std::move(bytes), count_};
  records_.clear();
  prev_upper_.clear();
  prev_lower_.clear();
  count_ = 0;
  return body;
}

ChunkBody EncodeChunkBody(const std::vector<Biclique>& bicliques) {
  ChunkBodyWriter writer;
  for (const Biclique& b : bicliques) writer.Append(b);
  return writer.Take();
}

namespace {

/// ReadVarint with the one-byte case inline: most gaps and lengths of a
/// body are below 128, and the decoder runs once per id.
inline bool NextVarint(const unsigned char** p, const unsigned char* end,
                       std::uint64_t* value) {
  if (*p < end && **p < 0x80) {
    *value = *(*p)++;
    return true;
  }
  return ReadVarint(p, end, value);
}

/// Decodes one side into `side` (empty on entry) against the previous
/// result's same side `prev`; `ids` counts the body's decoded ids.
Status DecodeSide(const unsigned char** p, const unsigned char* end,
                  const std::vector<VertexId>& prev, std::size_t* ids,
                  std::vector<VertexId>* side) {
  std::uint64_t shared = 0, rest = 0;
  if (!NextVarint(p, end, &shared) || !NextVarint(p, end, &rest)) {
    return Status::InvalidArgument("truncated chunk body");
  }
  if (shared > prev.size()) {
    return Status::InvalidArgument(
        "chunk body prefix longer than the previous result's side");
  }
  // Every remaining id costs at least one byte: the declared length is
  // checked against the bytes left before anything is allocated.
  if (rest > static_cast<std::uint64_t>(end - *p)) {
    return Status::InvalidArgument("chunk body side exceeds its bytes");
  }
  *ids += shared + rest;
  if (*ids > kMaxChunkBodyIds) {
    return Status::InvalidArgument("chunk body decodes to too many ids");
  }
  side->resize(shared + rest);
  std::copy(prev.begin(), prev.begin() + shared, side->begin());
  std::uint64_t next = shared == 0 ? 0 : std::uint64_t{prev[shared - 1]} + 1;
  for (std::size_t i = shared; i < side->size(); ++i) {
    std::uint64_t gap = 0;
    if (!NextVarint(p, end, &gap)) {
      return Status::InvalidArgument("truncated chunk body");
    }
    if (gap >= kInvalidVertex - next) {
      return Status::InvalidArgument("chunk body id out of range");
    }
    next += gap;
    (*side)[i] = static_cast<VertexId>(next);
    ++next;
  }
  return Status::OK();
}

}  // namespace

Status DecodeChunkBody(std::string_view body, std::vector<Biclique>* out) {
  const auto* p = reinterpret_cast<const unsigned char*>(body.data());
  const auto* end = p + body.size();
  const std::size_t start = out->size();
  auto fail = [&](Status status) {
    out->resize(start);
    return status;
  };
  std::uint64_t count = 0;
  if (!NextVarint(&p, end, &count)) {
    return Status::InvalidArgument("truncated chunk body");
  }
  // Each result needs at least its four length varints.
  if (count > static_cast<std::uint64_t>(end - p) / 4) {
    return Status::InvalidArgument("chunk body count exceeds its bytes");
  }
  // Reserved up front, so `prev` stays valid while results are appended.
  out->reserve(start + count);
  static const Biclique kNone;
  std::size_t ids = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const Biclique& prev = i == 0 ? kNone : out->back();
    Biclique& b = out->emplace_back();
    Status st = DecodeSide(&p, end, prev.upper, &ids, &b.upper);
    if (st.ok()) st = DecodeSide(&p, end, prev.lower, &ids, &b.lower);
    if (!st.ok()) return fail(std::move(st));
  }
  if (p != end) {
    return fail(Status::InvalidArgument("trailing bytes after chunk body"));
  }
  return Status::OK();
}

Status DecodeChunkBodies(const std::vector<ChunkBody>& bodies,
                         std::vector<Biclique>* out) {
  for (const ChunkBody& body : bodies) {
    Status st = DecodeChunkBody(*body.bytes, out);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace fairbc
