#ifndef FAIRBC_GRAPH_SNAPSHOT_H_
#define FAIRBC_GRAPH_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "graph/bipartite_graph.h"

namespace fairbc {

/// Versioned binary snapshot of an attributed bipartite graph. Loading a
/// snapshot copies the mapped CSR sections straight into the graph's
/// vectors — no text parsing — which is what makes GraphCatalog
/// preloading cheap. The mmap loader (ReadSnapshotView) skips even the
/// copy and views the CSR sections in place.
///
/// Layout (native-endian; the checksum catches cross-endian loads too,
/// since the payload bytes differ):
///
///   magic              8 bytes   "FBCSNAP1"
///   version            u32       kSnapshotVersion
///   reserved           u32       0
///   checksum           u64       FNV-1a over the count fields + payload
///   num_upper          u32
///   num_lower          u32
///   num_edges          u64
///   num_upper_attrs    u16
///   num_lower_attrs    u16
///   reserved           u32       0
///   upper_offsets      (num_upper + 1) x u64
///   upper_neighbors    num_edges x u32
///   lower_offsets      (num_lower + 1) x u64
///   lower_neighbors    num_edges x u32
///   upper_attrs        num_upper x u16
///   lower_attrs        num_lower x u16
///
/// Version 2 (current) zero-pads every array section to the next 8-byte
/// boundary so each section starts 8-byte aligned relative to the file —
/// the 48-byte header is itself 8-aligned, which is what lets an mmap'd
/// file be read through typed u64 spans without misaligned loads. The
/// padding bytes are *excluded* from the checksum, so a graph's
/// GraphFingerprint equals its snapshot header checksum. Version 1 (the
/// unpadded layout) is no longer read: it is rejected as an unsupported
/// version.
///
/// Version 3 (optional, written on request) compresses every array
/// section. After the same 48-byte common header — whose checksum field
/// still holds the *decoded-content* fingerprint, so
/// `GraphFingerprint(g) == header.checksum` in both versions — comes a
/// 64-byte v3 header, a block index, four varint sections (offsets as
/// first-absolute + deltas, attrs as raw varints), and a region of
/// neighbor blocks of `block_edges` edges each (delta-coded with
/// absolute restarts at block and list starts, per block either LEB128
/// varint or Golomb–Rice — whichever is smaller). The v3 header's
/// `index_checksum` covers the count block, the v3 header remainder, the
/// block index and the four varint sections, and is verified before any
/// allocation; each neighbor block carries its own folded-FNV checksum,
/// verified before it is decoded. See docs/SNAPSHOT_FORMAT.md for the
/// byte-level spec.
///
/// All three entry points share one header parse, which bounds every
/// count by the file's own bytes before anything is sized from it (v2:
/// exact length; v3: exact length, then at least one byte per varint
/// and one bit per neighbor-block value), so corrupt counts cannot cause
/// OOM. Every failure is a Status (kCorruptInput / kNotFound), never a
/// crash.

inline constexpr char kSnapshotMagic[8] = {'F', 'B', 'C', 'S', 'N', 'A', 'P', '1'};
inline constexpr std::uint32_t kSnapshotVersion = 2;
inline constexpr std::uint32_t kSnapshotVersionCompressed = 3;

/// Default v3 neighbor-block granularity: large enough that the 24-byte
/// index entry is amortized to well under 1% of a typical block, small
/// enough that the decoder's per-block scratch stays a few KiB.
inline constexpr std::uint32_t kDefaultSnapshotBlockEdges = 4096;
/// The block window every snapshot writer's front door accepts
/// (`fairbc_cli snapshot save --block-edges`, the line protocol's
/// `save block=`): [1, kMaxSnapshotBlockEdges].
inline constexpr std::int64_t kMaxSnapshotBlockEdges = 1'000'000'000;
constexpr bool ValidSnapshotBlockEdges(std::int64_t block_edges) {
  return block_edges >= 1 && block_edges <= kMaxSnapshotBlockEdges;
}

/// Incremental FNV-1a (64-bit) over a byte range.
std::uint64_t Fnv1a64(const void* data, std::size_t size,
                      std::uint64_t state = 14695981039346656037ULL);

/// Content fingerprint of a graph: FNV-1a over the vertex/edge/attr-domain
/// counts followed by the six CSR arrays — exactly the bytes a snapshot's
/// checksum covers, so `GraphFingerprint(g) == header.checksum` for a
/// snapshot of `g`. GraphCatalog versions and ResultCache keys use this;
/// two graphs with equal fingerprints are treated as identical content.
std::uint64_t GraphFingerprint(const BipartiteGraph& g);

struct SnapshotWriteOptions {
  /// kSnapshotVersion (2, raw + mmap-aligned) or
  /// kSnapshotVersionCompressed (3).
  std::uint32_t version = kSnapshotVersion;
  /// Edges per compressed neighbor block (v3 only). Must be >= 1.
  std::uint32_t block_edges = kDefaultSnapshotBlockEdges;
};

/// Writes `g` to `path` in the current default (v2) format. Overwrites
/// existing files.
Status WriteSnapshot(const BipartiteGraph& g, const std::string& path);

/// Writes `g` to `path` in the requested format version.
Status WriteSnapshot(const BipartiteGraph& g, const std::string& path,
                     const SnapshotWriteOptions& options);

/// Reads a snapshot written by WriteSnapshot into an owned graph,
/// byte-identical to the one written (same CSR arrays, same fingerprint).
/// Validates magic, version, checksums, exact file length and the full
/// BipartiteGraph::Validate() invariants; a v3 file is decoded in one
/// pass and its content fingerprint re-checked. `version`, when given,
/// receives the file's format version once its header parsed (it may be
/// set even when a later check fails the load).
Result<BipartiteGraph> ReadSnapshot(const std::string& path,
                                    std::uint32_t* version = nullptr);

/// Maps `path` read-only and returns a BipartiteGraph *view* whose CSR
/// spans point straight into the mapped pages (BipartiteGraph::IsView()),
/// making the load allocation-free: the only O(n) work is the checksum
/// verification, which doubles as page warm-up. The mapping is owned by
/// the returned graph (and any copies) and unmapped with the last one.
/// Compressed (v3) sections cannot be viewed in place, so a v3 file is
/// decoded as ReadSnapshot does — same bytes, IsView() false. All
/// validation matches ReadSnapshot, `version` included; the file must
/// stay unmodified while mapped.
Result<BipartiteGraph> ReadSnapshotView(const std::string& path,
                                        std::uint32_t* version = nullptr);

/// Cheap header inspection of a snapshot file: version, counts, content
/// fingerprint and (v3) compression geometry, without decoding any
/// payload. Runs the loaders' header parse, so it rejects exactly the
/// headers they reject (for v3 that includes the index checksum); the
/// content and per-block checksums are verified only on load.
struct SnapshotInfo {
  std::uint32_t version = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t checksum = 0;  ///< content fingerprint (GraphFingerprint).
  std::uint32_t num_upper = 0;
  std::uint32_t num_lower = 0;
  std::uint64_t num_edges = 0;
  std::uint16_t num_upper_attrs = 0;
  std::uint16_t num_lower_attrs = 0;
  /// Size the same graph takes as a v2 snapshot (header + raw aligned
  /// sections) — the denominator-free way to report compression ratio.
  std::uint64_t uncompressed_bytes = 0;
  /// v3 only; zero for v2.
  std::uint32_t block_edges = 0;
  std::uint64_t num_blocks = 0;  ///< per direction.
};

Result<SnapshotInfo> ProbeSnapshot(const std::string& path);

}  // namespace fairbc

#endif  // FAIRBC_GRAPH_SNAPSHOT_H_
