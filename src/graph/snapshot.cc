#include "graph/snapshot.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <string_view>
#include <type_traits>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "graph/varint_codec.h"

namespace fairbc {
namespace {

struct SnapshotCounts {
  std::uint32_t num_upper = 0;
  std::uint32_t num_lower = 0;
  std::uint64_t num_edges = 0;
  std::uint16_t num_upper_attrs = 0;
  std::uint16_t num_lower_attrs = 0;
  std::uint32_t reserved = 0;
};
static_assert(sizeof(SnapshotCounts) == 24, "packed count block");

struct V3Header {
  std::uint64_t index_checksum = 0;
  std::uint32_t block_edges = 0;
  std::uint32_t num_upper_blocks = 0;
  std::uint32_t num_lower_blocks = 0;
  std::uint32_t reserved = 0;
  std::uint64_t upper_offsets_bytes = 0;
  std::uint64_t lower_offsets_bytes = 0;
  std::uint64_t upper_attrs_bytes = 0;
  std::uint64_t lower_attrs_bytes = 0;
  std::uint64_t blocks_bytes = 0;
};
static_assert(sizeof(V3Header) == 64, "packed v3 header");

struct BlockIndexEntry {
  std::uint64_t offset = 0;    ///< from the start of the blocks region.
  std::uint32_t bytes = 0;     ///< encoded size of this block.
  std::uint32_t checksum = 0;  ///< Fold32(Fnv1a64(block bytes)).
  std::uint16_t codec = 0;     ///< BlockCodec.
  std::uint16_t rice_k = 0;    ///< Rice parameter when codec == kRice.
  std::uint32_t reserved = 0;
};
static_assert(sizeof(BlockIndexEntry) == 24, "packed block index entry");

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Array sections are zero-padded to this alignment in version-2 files so
/// mmap'd u64 spans never do misaligned loads.
constexpr std::uint64_t kSectionAlign = 8;

/// Templated so the 128-bit size pre-check shares the exact same padding
/// rule as the u64 writer/reader paths.
template <typename T>
constexpr T PadTo8(T bytes) {
  return (T{kSectionAlign} - bytes % T{kSectionAlign}) % T{kSectionAlign};
}

SnapshotCounts CountsOf(const BipartiteGraph& g) {
  SnapshotCounts c;
  c.num_upper = g.NumUpper();
  c.num_lower = g.NumLower();
  c.num_edges = g.NumEdges();
  c.num_upper_attrs = g.NumAttrs(Side::kUpper);
  c.num_lower_attrs = g.NumAttrs(Side::kLower);
  return c;
}

template <typename T>
std::uint64_t FoldSpan(std::uint64_t state, std::span<const T> data) {
  return Fnv1a64(data.data(), data.size() * sizeof(T), state);
}

/// Checksum over the count block and the six arrays, in file order.
std::uint64_t ChecksumOf(const SnapshotCounts& counts,
                         const BipartiteGraph& g) {
  std::uint64_t state = Fnv1a64(&counts, sizeof(counts));
  state = FoldSpan(state, g.Offsets(Side::kUpper));
  state = FoldSpan(state, g.NeighborArray(Side::kUpper));
  state = FoldSpan(state, g.Offsets(Side::kLower));
  state = FoldSpan(state, g.NeighborArray(Side::kLower));
  state = FoldSpan(state, g.AttrArray(Side::kUpper));
  state = FoldSpan(state, g.AttrArray(Side::kLower));
  return state;
}

template <typename T>
void WriteArray(std::ofstream& out, std::span<const T> data) {
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size() * sizeof(T)));
  static constexpr char kZeros[kSectionAlign] = {};
  out.write(kZeros,
            static_cast<std::streamsize>(PadTo8(data.size() * sizeof(T))));
}

/// Version-2 payload size implied by the count fields: the six raw
/// arrays plus each section's alignment padding. 128-bit because a
/// corrupt num_edges alone can overflow a u64 byte count.
unsigned __int128 ExpectedPayloadBytes(const SnapshotCounts& counts) {
  const unsigned __int128 sections[6] = {
      (static_cast<unsigned __int128>(counts.num_upper) + 1) *
          sizeof(EdgeIndex),
      static_cast<unsigned __int128>(counts.num_edges) * sizeof(VertexId),
      (static_cast<unsigned __int128>(counts.num_lower) + 1) *
          sizeof(EdgeIndex),
      static_cast<unsigned __int128>(counts.num_edges) * sizeof(VertexId),
      static_cast<unsigned __int128>(counts.num_upper) * sizeof(AttrId),
      static_cast<unsigned __int128>(counts.num_lower) * sizeof(AttrId)};
  unsigned __int128 total = 0;
  for (unsigned __int128 bytes : sections) total += bytes + PadTo8(bytes);
  return total;
}

// ---------------------------------------------------------------------------
// Version 3: compressed sections. Layout after the common 48-byte header:
//
//   V3Header            64 bytes
//   block index         2 * num_blocks x BlockIndexEntry (upper, then lower)
//   upper_offsets_c     varints: first absolute, then deltas
//   lower_offsets_c     "
//   upper_attrs_c       varints, one per vertex
//   lower_attrs_c       "
//   blocks region       concatenated neighbor blocks (upper, then lower)
//
// `index_checksum` covers the count block, the v3 header remainder, the
// block index and the four eager sections — everything a reader must
// trust before sizing an allocation — and is verified first. Each
// neighbor block carries its own folded-FNV checksum in the index,
// verified before the block is decoded.

constexpr std::uint64_t kCommonHeaderBytes = 48;

std::uint32_t Fold32(std::uint64_t h) {
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

/// Offsets section: first value absolute, then consecutive differences
/// (non-negative because offsets are monotone).
std::string EncodeOffsetsSection(std::span<const EdgeIndex> offsets) {
  std::string out;
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    AppendVarint(&out, i == 0 ? offsets[0] : offsets[i] - offsets[i - 1]);
  }
  return out;
}

Status DecodeOffsetsSection(const unsigned char* data, std::size_t size,
                            std::size_t count, std::uint64_t num_edges,
                            std::vector<EdgeIndex>* out) {
  out->clear();
  out->reserve(count);
  const unsigned char* p = data;
  const unsigned char* end = data + size;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t v = 0;
    if (!ReadVarint(&p, end, &v)) {
      return Status::CorruptInput("truncated offsets section");
    }
    // Overflow-safe monotone accumulation bounded by the edge count.
    if (i == 0) {
      acc = v;
    } else if (v > num_edges - acc) {
      return Status::CorruptInput("offsets section exceeds edge count");
    } else {
      acc += v;
    }
    if (acc > num_edges) {
      return Status::CorruptInput("offsets section exceeds edge count");
    }
    out->push_back(acc);
  }
  if (p != end) {
    return Status::CorruptInput("trailing bytes in offsets section");
  }
  if (out->empty() || out->front() != 0 || out->back() != num_edges) {
    return Status::CorruptInput("offsets section endpoints mismatch");
  }
  return Status::OK();
}

std::string EncodeAttrsSection(std::span<const AttrId> attrs) {
  std::string out;
  for (AttrId a : attrs) AppendVarint(&out, a);
  return out;
}

Status DecodeAttrsSection(const unsigned char* data, std::size_t size,
                          std::size_t count, std::uint16_t num_attrs,
                          std::vector<AttrId>* out) {
  out->clear();
  out->reserve(count);
  const unsigned char* p = data;
  const unsigned char* end = data + size;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t v = 0;
    if (!ReadVarint(&p, end, &v)) {
      return Status::CorruptInput("truncated attrs section");
    }
    if (v >= num_attrs) {
      return Status::CorruptInput("attr id out of domain");
    }
    out->push_back(static_cast<AttrId>(v));
  }
  if (p != end) {
    return Status::CorruptInput("trailing bytes in attrs section");
  }
  return Status::OK();
}

/// Splits one direction's neighbor array into blocks of `block_edges`
/// entries, delta-maps each (absolute value at a block start or a list
/// start, gap-minus-one otherwise — lists are strictly increasing) and
/// appends the per-block encodings to `blocks` / their descriptors to
/// `index`. Offsets in the emitted entries are relative to the start of
/// the whole blocks region, so calling this for upper then lower onto
/// the same string yields the final region verbatim.
Status EncodeNeighborBlocks(std::span<const EdgeIndex> offsets,
                            std::span<const VertexId> neighbors,
                            std::uint32_t block_edges,
                            std::vector<BlockIndexEntry>* index,
                            std::string* blocks) {
  const std::size_t num_edges = neighbors.size();
  std::vector<std::uint64_t> mapped;
  mapped.reserve(std::min<std::size_t>(block_edges, num_edges));
  std::size_t vp = 0;  // current vertex: offsets[vp] <= e < offsets[vp+1].
  for (std::size_t start = 0; start < num_edges; start += block_edges) {
    const std::size_t count =
        std::min<std::size_t>(block_edges, num_edges - start);
    mapped.clear();
    for (std::size_t e = start; e < start + count; ++e) {
      while (vp + 1 < offsets.size() && offsets[vp + 1] <= e) ++vp;
      const bool restart = e == start || offsets[vp] == e;
      mapped.push_back(restart
                           ? std::uint64_t{neighbors[e]}
                           : std::uint64_t{neighbors[e]} - neighbors[e - 1] - 1);
    }
    BlockIndexEntry entry;
    BlockCodec codec = BlockCodec::kVarint;
    std::uint16_t rice_k = 0;
    const std::string bytes = EncodeBlock(mapped, &codec, &rice_k);
    if (bytes.size() > 0xFFFFFFFFull) {
      return Status::InvalidArgument(
          "snapshot block_edges too large: one encoded block exceeds 4 GiB");
    }
    entry.offset = blocks->size();
    entry.bytes = static_cast<std::uint32_t>(bytes.size());
    entry.checksum = Fold32(Fnv1a64(bytes.data(), bytes.size()));
    entry.codec = static_cast<std::uint16_t>(codec);
    entry.rice_k = rice_k;
    index->push_back(entry);
    blocks->append(bytes);
  }
  return Status::OK();
}

Status WriteSnapshotV3(const BipartiteGraph& g, const std::string& path,
                       std::uint32_t block_edges) {
  if (block_edges == 0) {
    return Status::InvalidArgument("snapshot block_edges must be >= 1");
  }
  const SnapshotCounts counts = CountsOf(g);
  const std::uint64_t checksum = ChecksumOf(counts, g);

  const std::string upper_offsets_c =
      EncodeOffsetsSection(g.Offsets(Side::kUpper));
  const std::string lower_offsets_c =
      EncodeOffsetsSection(g.Offsets(Side::kLower));
  const std::string upper_attrs_c = EncodeAttrsSection(g.AttrArray(Side::kUpper));
  const std::string lower_attrs_c = EncodeAttrsSection(g.AttrArray(Side::kLower));

  std::vector<BlockIndexEntry> index;
  std::string blocks;
  FAIRBC_RETURN_IF_ERROR(EncodeNeighborBlocks(g.Offsets(Side::kUpper),
                                              g.NeighborArray(Side::kUpper),
                                              block_edges, &index, &blocks));
  const std::size_t num_upper_blocks = index.size();
  FAIRBC_RETURN_IF_ERROR(EncodeNeighborBlocks(g.Offsets(Side::kLower),
                                              g.NeighborArray(Side::kLower),
                                              block_edges, &index, &blocks));
  const std::size_t num_lower_blocks = index.size() - num_upper_blocks;
  if (num_upper_blocks > 0xFFFFFFFFull || num_lower_blocks > 0xFFFFFFFFull) {
    return Status::InvalidArgument(
        "snapshot block_edges too small for this edge count");
  }

  V3Header header;
  header.block_edges = block_edges;
  header.num_upper_blocks = static_cast<std::uint32_t>(num_upper_blocks);
  header.num_lower_blocks = static_cast<std::uint32_t>(num_lower_blocks);
  header.upper_offsets_bytes = upper_offsets_c.size();
  header.lower_offsets_bytes = lower_offsets_c.size();
  header.upper_attrs_bytes = upper_attrs_c.size();
  header.lower_attrs_bytes = lower_attrs_c.size();
  header.blocks_bytes = blocks.size();

  std::uint64_t state = Fnv1a64(&counts, sizeof(counts));
  const auto* header_bytes = reinterpret_cast<const unsigned char*>(&header);
  state = Fnv1a64(header_bytes + sizeof(header.index_checksum),
                  sizeof(header) - sizeof(header.index_checksum), state);
  state = Fnv1a64(index.data(), index.size() * sizeof(BlockIndexEntry), state);
  state = Fnv1a64(upper_offsets_c.data(), upper_offsets_c.size(), state);
  state = Fnv1a64(lower_offsets_c.data(), lower_offsets_c.size(), state);
  state = Fnv1a64(upper_attrs_c.data(), upper_attrs_c.size(), state);
  state = Fnv1a64(lower_attrs_c.data(), lower_attrs_c.size(), state);
  header.index_checksum = state;

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::NotFound("cannot open for writing: " + path);
  }
  out.write(kSnapshotMagic, sizeof(kSnapshotMagic));
  const std::uint32_t version = kSnapshotVersionCompressed;
  const std::uint32_t reserved = 0;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&reserved), sizeof(reserved));
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  out.write(reinterpret_cast<const char*>(&counts), sizeof(counts));
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.write(reinterpret_cast<const char*>(index.data()),
            static_cast<std::streamsize>(index.size() *
                                         sizeof(BlockIndexEntry)));
  out.write(upper_offsets_c.data(),
            static_cast<std::streamsize>(upper_offsets_c.size()));
  out.write(lower_offsets_c.data(),
            static_cast<std::streamsize>(lower_offsets_c.size()));
  out.write(upper_attrs_c.data(),
            static_cast<std::streamsize>(upper_attrs_c.size()));
  out.write(lower_attrs_c.data(),
            static_cast<std::streamsize>(lower_attrs_c.size()));
  out.write(blocks.data(), static_cast<std::streamsize>(blocks.size()));
  out.flush();
  if (!out) {
    return Status::Internal("short write to " + path);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reading. Every loader starts from MapSnapshot, the one header parser.

Status Corrupt(const std::string& what, const std::string& path) {
  return Status::CorruptInput(what + ": " + path);
}

/// A snapshot file mapped read-only, its header checked against the file
/// length. For version 3 the metadata (count block, v3 header, block
/// index, eager sections) is also checksum-verified and the block index
/// validated, so every count a loader sizes an allocation from is
/// bounded by the file's own bytes.
struct MappedSnapshot {
  std::shared_ptr<const void> mapping;
  const unsigned char* base = nullptr;
  std::uint64_t file_size = 0;
  std::uint32_t version = 0;
  std::uint64_t checksum = 0;  ///< content fingerprint.
  SnapshotCounts counts;
  // Version 3 only.
  V3Header v3;
  std::vector<BlockIndexEntry> index;  ///< upper blocks, then lower blocks.
  std::uint64_t eager_offset = 0;      ///< file offset of upper_offsets_c.
  std::uint64_t blocks_offset = 0;     ///< file offset of the blocks region.
};

/// Checks a version-3 file's geometry, verifies its index checksum and
/// validates the block index, all before anything is sized from the
/// (as yet unauthenticated) counts.
Status ParseV3Layout(MappedSnapshot* s, const std::string& path) {
  constexpr std::uint64_t kIndexOffset = kCommonHeaderBytes + sizeof(V3Header);
  if (s->file_size < kIndexOffset) {
    return Corrupt("truncated snapshot header", path);
  }
  V3Header& h = s->v3;
  const SnapshotCounts& c = s->counts;
  std::memcpy(&h, s->base + kCommonHeaderBytes, sizeof(h));
  if (h.block_edges == 0) return Corrupt("snapshot block_edges is zero", path);
  const std::uint64_t blocks =
      c.num_edges == 0 ? 0 : (c.num_edges - 1) / h.block_edges + 1;
  if (h.num_upper_blocks != blocks || h.num_lower_blocks != blocks) {
    return Corrupt("snapshot block count does not match its edge count", path);
  }
  // Exact size, in 128-bit arithmetic so crafted lengths cannot wrap the
  // check, before any section length is trusted.
  const unsigned __int128 index_bytes =
      static_cast<unsigned __int128>(2 * blocks) * sizeof(BlockIndexEntry);
  const unsigned __int128 eager_bytes =
      static_cast<unsigned __int128>(h.upper_offsets_bytes) +
      h.lower_offsets_bytes + h.upper_attrs_bytes + h.lower_attrs_bytes;
  if (kIndexOffset + index_bytes + eager_bytes + h.blocks_bytes !=
      s->file_size) {
    return Corrupt("snapshot payload size does not match its header counts",
                   path);
  }
  s->eager_offset = kIndexOffset + static_cast<std::uint64_t>(index_bytes);
  s->blocks_offset = s->eager_offset + static_cast<std::uint64_t>(eager_bytes);

  // The block index and the four eager sections are contiguous in the
  // file, hence one pass.
  std::uint64_t state = Fnv1a64(s->base + 24, sizeof(SnapshotCounts));
  state = Fnv1a64(s->base + kCommonHeaderBytes + sizeof(h.index_checksum),
                  sizeof(V3Header) - sizeof(h.index_checksum), state);
  state = Fnv1a64(s->base + kIndexOffset, s->blocks_offset - kIndexOffset,
                  state);
  if (state != h.index_checksum) {
    return Corrupt("snapshot index checksum mismatch", path);
  }

  // A varint takes at least one byte, so each eager section bounds its
  // vertex count.
  if (c.num_upper + std::uint64_t{1} > h.upper_offsets_bytes ||
      c.num_lower + std::uint64_t{1} > h.lower_offsets_bytes ||
      c.num_upper > h.upper_attrs_bytes || c.num_lower > h.lower_attrs_bytes) {
    return Corrupt("snapshot section too short for its vertex count", path);
  }
  // Entries must tile the blocks region exactly in order, which makes
  // every entry's byte range safe to read without per-access bounds
  // math. Every coded value takes at least one bit (a Rice k=0 zero; a
  // varint takes a byte), so a block of n values needs n bits: that
  // bounds num_edges by 8 x each direction's block bytes.
  s->index.resize(2 * blocks);
  if (blocks != 0) {
    std::memcpy(s->index.data(), s->base + kIndexOffset,
                static_cast<std::size_t>(index_bytes));
  }
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < s->index.size(); ++i) {
    const BlockIndexEntry& entry = s->index[i];
    if (entry.offset != running || entry.bytes > h.blocks_bytes - running ||
        entry.codec > static_cast<std::uint16_t>(BlockCodec::kRice) ||
        entry.rice_k > 63 || entry.reserved != 0) {
      return Corrupt("snapshot block index invalid", path);
    }
    const std::uint64_t first = (i % blocks) * h.block_edges;
    if (std::uint64_t{entry.bytes} * 8 <
        std::min<std::uint64_t>(h.block_edges, c.num_edges - first)) {
      return Corrupt("snapshot block too short for its edge count", path);
    }
    running += entry.bytes;
  }
  if (running != h.blocks_bytes) {
    return Corrupt("snapshot block index invalid", path);
  }
  return Status::OK();
}

Result<MappedSnapshot> MapSnapshot(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound("cannot open: " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return Corrupt("not a regular file", path);
  }
  MappedSnapshot s;
  s.file_size = static_cast<std::uint64_t>(st.st_size);
  if (s.file_size < kCommonHeaderBytes) {
    ::close(fd);
    return Corrupt("truncated snapshot header", path);
  }
  void* mapped = ::mmap(nullptr, s.file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference.
  if (mapped == MAP_FAILED) return Status::Internal("mmap failed: " + path);
  s.mapping = std::shared_ptr<const void>(
      mapped, [size = s.file_size](const void* p) {
        ::munmap(const_cast<void*>(p), size);
      });
  s.base = static_cast<const unsigned char*>(mapped);

  if (std::memcmp(s.base, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Corrupt("not a fairbc snapshot", path);
  }
  std::memcpy(&s.version, s.base + 8, sizeof(s.version));
  std::memcpy(&s.checksum, s.base + 16, sizeof(s.checksum));
  std::memcpy(&s.counts, s.base + 24, sizeof(s.counts));
  if (s.version == kSnapshotVersionCompressed) {
    FAIRBC_RETURN_IF_ERROR(ParseV3Layout(&s, path));
    return s;
  }
  if (s.version != kSnapshotVersion) {
    return Corrupt("unsupported snapshot version " + std::to_string(s.version),
                   path);
  }
  // Exact, so it also rejects trailing bytes.
  if (ExpectedPayloadBytes(s.counts) != s.file_size - kCommonHeaderBytes) {
    return Corrupt("snapshot payload size does not match its header counts",
                   path);
  }
  return s;
}

Result<BipartiteGraph> Validated(BipartiteGraph g, const std::string& path) {
  Status valid = g.Validate();
  if (!valid.ok()) {
    return Corrupt("snapshot fails graph validation (" + valid.message() + ")",
                   path);
  }
  return g;
}

/// Slices the six version-2 sections out of the mapping into a view.
/// Every section starts 8-byte aligned (the padding, and page-aligned
/// mmap bases); padding bytes must be zero since the checksum excludes
/// them.
Result<BipartiteGraph> ViewRawSections(const MappedSnapshot& s,
                                       const std::string& path) {
  std::uint64_t pos = kCommonHeaderBytes;
  bool padding_clean = true;
  auto take = [&](std::uint64_t count, auto* span_out) {
    using T = typename std::remove_reference_t<decltype(*span_out)>::value_type;
    const std::uint64_t bytes = count * sizeof(T);
    *span_out = std::span<const T>(reinterpret_cast<const T*>(s.base + pos),
                                   static_cast<std::size_t>(count));
    pos += bytes;
    for (std::uint64_t i = 0; i < PadTo8(bytes); ++i) {
      padding_clean = padding_clean && s.base[pos + i] == 0;
    }
    pos += PadTo8(bytes);
  };
  const SnapshotCounts& c = s.counts;
  std::span<const EdgeIndex> upper_offsets, lower_offsets;
  std::span<const VertexId> upper_neighbors, lower_neighbors;
  std::span<const AttrId> upper_attrs, lower_attrs;
  take(c.num_upper + std::uint64_t{1}, &upper_offsets);
  take(c.num_edges, &upper_neighbors);
  take(c.num_lower + std::uint64_t{1}, &lower_offsets);
  take(c.num_edges, &lower_neighbors);
  take(c.num_upper, &upper_attrs);
  take(c.num_lower, &lower_attrs);
  if (!padding_clean) return Corrupt("snapshot padding bytes corrupted", path);

  std::uint64_t state = Fnv1a64(&c, sizeof(c));
  state = FoldSpan(state, upper_offsets);
  state = FoldSpan(state, upper_neighbors);
  state = FoldSpan(state, lower_offsets);
  state = FoldSpan(state, lower_neighbors);
  state = FoldSpan(state, upper_attrs);
  state = FoldSpan(state, lower_attrs);
  if (state != s.checksum) return Corrupt("snapshot checksum mismatch", path);
  return Validated(
      BipartiteGraph::MakeView(upper_offsets, upper_neighbors, lower_offsets,
                               lower_neighbors, upper_attrs, lower_attrs,
                               static_cast<AttrId>(c.num_upper_attrs),
                               static_cast<AttrId>(c.num_lower_attrs),
                               s.mapping),
      path);
}

/// Decodes one direction's neighbor blocks, starting at index entry
/// `first_block`, into `out`. Each block's checksum is verified before it
/// is decoded; the delta map is undone with the same vertex-pointer walk
/// the encoder used (absolute at a block or list start, gap-minus-one
/// otherwise). Decoded ids index the opposite side, of size `opposite`.
Status DecodeNeighborBlocks(const MappedSnapshot& s, std::size_t first_block,
                            const std::vector<EdgeIndex>& offsets,
                            std::uint64_t opposite,
                            std::vector<VertexId>* out) {
  const std::uint64_t num_edges = s.counts.num_edges;
  const std::uint64_t block_edges = s.v3.block_edges;
  out->resize(static_cast<std::size_t>(num_edges));
  std::vector<std::uint64_t> vals(
      static_cast<std::size_t>(std::min(block_edges, num_edges)));
  std::size_t vp = 0;  // current vertex: offsets[vp] <= e < offsets[vp+1].
  std::size_t b = first_block;
  for (std::uint64_t start = 0; start < num_edges; start += block_edges, ++b) {
    const BlockIndexEntry& entry = s.index[b];
    const std::size_t n = static_cast<std::size_t>(
        std::min(block_edges, num_edges - start));
    const unsigned char* data = s.base + s.blocks_offset + entry.offset;
    if (Fold32(Fnv1a64(data, entry.bytes)) != entry.checksum) {
      return Status::CorruptInput("snapshot block checksum mismatch");
    }
    FAIRBC_RETURN_IF_ERROR(DecodeBlock(
        std::string_view(reinterpret_cast<const char*>(data), entry.bytes),
        static_cast<BlockCodec>(entry.codec), entry.rice_k, n, vals.data()));
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t e = start + i;
      while (vp + 1 < offsets.size() && offsets[vp + 1] <= e) ++vp;
      const bool restart = i == 0 || offsets[vp] == e;
      // Bound the raw value first so prev + vals[i] + 1 cannot wrap.
      if (vals[i] >= opposite) {
        return Status::CorruptInput("snapshot neighbor id out of range");
      }
      const std::uint64_t value = restart ? vals[i] : prev + vals[i] + 1;
      if (value >= opposite) {
        return Status::CorruptInput("snapshot neighbor id out of range");
      }
      prev = value;
      (*out)[static_cast<std::size_t>(e)] = static_cast<VertexId>(value);
    }
  }
  return Status::OK();
}

/// Whole-graph version-3 decode: one pass over the mapped sections into
/// owned CSR vectors, then the content fingerprint and Validate().
Result<BipartiteGraph> DecodeCompressed(const MappedSnapshot& s,
                                        const std::string& path) {
  const SnapshotCounts& c = s.counts;
  const V3Header& h = s.v3;
  const unsigned char* upper_offsets_c = s.base + s.eager_offset;
  const unsigned char* lower_offsets_c = upper_offsets_c + h.upper_offsets_bytes;
  const unsigned char* upper_attrs_c = lower_offsets_c + h.lower_offsets_bytes;
  const unsigned char* lower_attrs_c = upper_attrs_c + h.upper_attrs_bytes;
  std::vector<EdgeIndex> upper_offsets, lower_offsets;
  std::vector<VertexId> upper_neighbors, lower_neighbors;
  std::vector<AttrId> upper_attrs, lower_attrs;
  Status st = DecodeOffsetsSection(upper_offsets_c, h.upper_offsets_bytes,
                                   c.num_upper + std::size_t{1}, c.num_edges,
                                   &upper_offsets);
  if (st.ok()) {
    st = DecodeOffsetsSection(lower_offsets_c, h.lower_offsets_bytes,
                              c.num_lower + std::size_t{1}, c.num_edges,
                              &lower_offsets);
  }
  if (st.ok()) {
    st = DecodeAttrsSection(upper_attrs_c, h.upper_attrs_bytes, c.num_upper,
                            c.num_upper_attrs, &upper_attrs);
  }
  if (st.ok()) {
    st = DecodeAttrsSection(lower_attrs_c, h.lower_attrs_bytes, c.num_lower,
                            c.num_lower_attrs, &lower_attrs);
  }
  if (st.ok()) {
    st = DecodeNeighborBlocks(s, 0, upper_offsets, c.num_lower,
                              &upper_neighbors);
  }
  if (st.ok()) {
    st = DecodeNeighborBlocks(s, h.num_upper_blocks, lower_offsets,
                              c.num_upper, &lower_neighbors);
  }
  if (!st.ok()) return Corrupt(st.message(), path);

  BipartiteGraph g(std::move(upper_offsets), std::move(upper_neighbors),
                   std::move(lower_offsets), std::move(lower_neighbors),
                   std::move(upper_attrs), std::move(lower_attrs),
                   static_cast<AttrId>(c.num_upper_attrs),
                   static_cast<AttrId>(c.num_lower_attrs));
  // The block checksums authenticated each block, but the header
  // fingerprint is the cross-format contract (it is what v2 files carry
  // and what GraphCatalog/ResultCache key on): verify it too.
  if (GraphFingerprint(g) != s.checksum) {
    return Corrupt("snapshot checksum mismatch", path);
  }
  return Validated(std::move(g), path);
}

}  // namespace

std::uint64_t Fnv1a64(const void* data, std::size_t size, std::uint64_t state) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state ^= bytes[i];
    state *= kFnvPrime;
  }
  return state;
}

std::uint64_t GraphFingerprint(const BipartiteGraph& g) {
  const SnapshotCounts counts = CountsOf(g);
  return ChecksumOf(counts, g);
}

Status WriteSnapshot(const BipartiteGraph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::NotFound("cannot open for writing: " + path);
  }
  const SnapshotCounts counts = CountsOf(g);
  const std::uint64_t checksum = ChecksumOf(counts, g);

  out.write(kSnapshotMagic, sizeof(kSnapshotMagic));
  const std::uint32_t version = kSnapshotVersion;
  const std::uint32_t reserved = 0;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&reserved), sizeof(reserved));
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  out.write(reinterpret_cast<const char*>(&counts), sizeof(counts));
  WriteArray(out, g.Offsets(Side::kUpper));
  WriteArray(out, g.NeighborArray(Side::kUpper));
  WriteArray(out, g.Offsets(Side::kLower));
  WriteArray(out, g.NeighborArray(Side::kLower));
  WriteArray(out, g.AttrArray(Side::kUpper));
  WriteArray(out, g.AttrArray(Side::kLower));
  out.flush();
  if (!out) {
    return Status::Internal("short write to " + path);
  }
  return Status::OK();
}

Status WriteSnapshot(const BipartiteGraph& g, const std::string& path,
                     const SnapshotWriteOptions& options) {
  if (options.version == kSnapshotVersion) {
    return WriteSnapshot(g, path);
  }
  if (options.version == kSnapshotVersionCompressed) {
    return WriteSnapshotV3(g, path, options.block_edges);
  }
  return Status::InvalidArgument("unsupported snapshot write version " +
                                 std::to_string(options.version));
}

Result<BipartiteGraph> ReadSnapshotView(const std::string& path,
                                        std::uint32_t* version) {
  Result<MappedSnapshot> mapped = MapSnapshot(path);
  if (!mapped.ok()) return mapped.status();
  if (version != nullptr) *version = mapped.value().version;
  // Compressed sections cannot be viewed in place.
  if (mapped.value().version == kSnapshotVersionCompressed) {
    return DecodeCompressed(mapped.value(), path);
  }
  return ViewRawSections(mapped.value(), path);
}

Result<BipartiteGraph> ReadSnapshot(const std::string& path,
                                    std::uint32_t* version) {
  Result<BipartiteGraph> loaded = ReadSnapshotView(path, version);
  if (!loaded.ok() || !loaded.value().IsView()) return loaded;
  // Copy the verified view into owned arrays; the mapping dies with it.
  const BipartiteGraph& view = loaded.value();
  auto owned = [](auto span) {
    return std::vector<typename decltype(span)::value_type>(span.begin(),
                                                            span.end());
  };
  return BipartiteGraph(
      owned(view.Offsets(Side::kUpper)), owned(view.NeighborArray(Side::kUpper)),
      owned(view.Offsets(Side::kLower)), owned(view.NeighborArray(Side::kLower)),
      owned(view.AttrArray(Side::kUpper)), owned(view.AttrArray(Side::kLower)),
      view.NumAttrs(Side::kUpper), view.NumAttrs(Side::kLower));
}

Result<SnapshotInfo> ProbeSnapshot(const std::string& path) {
  Result<MappedSnapshot> mapped = MapSnapshot(path);
  if (!mapped.ok()) return mapped.status();
  const MappedSnapshot& s = mapped.value();
  SnapshotInfo info;
  info.version = s.version;
  info.file_bytes = s.file_size;
  info.checksum = s.checksum;
  info.num_upper = s.counts.num_upper;
  info.num_lower = s.counts.num_lower;
  info.num_edges = s.counts.num_edges;
  info.num_upper_attrs = s.counts.num_upper_attrs;
  info.num_lower_attrs = s.counts.num_lower_attrs;
  // The parse bounded every count by the file's bytes, so this fits.
  info.uncompressed_bytes =
      kCommonHeaderBytes +
      static_cast<std::uint64_t>(ExpectedPayloadBytes(s.counts));
  if (s.version == kSnapshotVersionCompressed) {
    info.block_edges = s.v3.block_edges;
    info.num_blocks = s.v3.num_upper_blocks;
  }
  return info;
}

}  // namespace fairbc
