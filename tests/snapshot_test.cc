// Binary snapshot round-trip and error-path tests (graph/snapshot.h):
// save/load must reproduce byte-identical CSR arrays for every generator
// family, and every corruption mode (bad magic, bad version, truncation,
// flipped payload bytes, trailing garbage) must come back as a Status —
// never a crash.

#include "graph/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/varint_codec.h"
#include "test_util.h"

namespace fairbc {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void ExpectSpansEqual(std::span<const T> a, std::span<const T> b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::vector<T>(a.begin(), a.end()),
            std::vector<T>(b.begin(), b.end()));
}

void ExpectByteIdentical(const BipartiteGraph& a, const BipartiteGraph& b) {
  EXPECT_EQ(a.NumUpper(), b.NumUpper());
  EXPECT_EQ(a.NumLower(), b.NumLower());
  EXPECT_EQ(a.NumEdges(), b.NumEdges());
  for (Side side : {Side::kUpper, Side::kLower}) {
    EXPECT_EQ(a.NumAttrs(side), b.NumAttrs(side));
    ExpectSpansEqual(a.Offsets(side), b.Offsets(side));
    ExpectSpansEqual(a.NeighborArray(side), b.NeighborArray(side));
    ExpectSpansEqual(a.AttrArray(side), b.AttrArray(side));
  }
  EXPECT_EQ(GraphFingerprint(a), GraphFingerprint(b));
}

class SnapshotRoundTrip : public ::testing::TestWithParam<const char*> {
 protected:
  BipartiteGraph MakeFamilyGraph() const {
    const std::string family = GetParam();
    if (family == "uniform") {
      return MakeUniformRandom(400, 500, 3000, 3, 19);
    }
    if (family == "powerlaw") {
      return MakePowerLaw(400, 500, 3000, 2.2, 3, 19);
    }
    AffiliationConfig config;
    config.num_upper = 400;
    config.num_lower = 500;
    config.num_communities = 25;
    config.seed = 19;
    return MakeAffiliation(config);
  }
};

TEST_P(SnapshotRoundTrip, SaveLoadByteIdentical) {
  const BipartiteGraph g = MakeFamilyGraph();
  const std::string path = TempPath(std::string("rt_") + GetParam() + ".snap");
  ASSERT_TRUE(WriteSnapshot(g, path).ok());

  auto loaded = ReadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectByteIdentical(g, loaded.value());
  EXPECT_TRUE(loaded.value().Validate().ok());
}

TEST_P(SnapshotRoundTrip, MmapViewByteIdenticalToCopyLoad) {
  const BipartiteGraph g = MakeFamilyGraph();
  const std::string path =
      TempPath(std::string("view_") + GetParam() + ".snap");
  ASSERT_TRUE(WriteSnapshot(g, path).ok());

  // Copies of a view share the mapping and stay byte-identical; the
  // mapping survives the original being destroyed.
  BipartiteGraph copy;
  {
    auto view = ReadSnapshotView(path);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_TRUE(view.value().IsView());
    ExpectByteIdentical(g, view.value());
    EXPECT_TRUE(view.value().Validate().ok());
    copy = view.value();
  }
  EXPECT_TRUE(copy.IsView());
  ExpectByteIdentical(g, copy);
}

TEST_P(SnapshotRoundTrip, RewriteIsDeterministic) {
  const BipartiteGraph g = MakeFamilyGraph();
  const std::string p1 = TempPath("det1.snap");
  const std::string p2 = TempPath("det2.snap");
  ASSERT_TRUE(WriteSnapshot(g, p1).ok());
  ASSERT_TRUE(WriteSnapshot(g, p2).ok());
  EXPECT_EQ(ReadFileBytes(p1), ReadFileBytes(p2));
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, SnapshotRoundTrip,
                         ::testing::Values("uniform", "powerlaw",
                                           "affiliation"));

TEST(SnapshotTest, EmptyGraphRoundTrips) {
  BipartiteGraph g;
  const std::string path = TempPath("empty.snap");
  ASSERT_TRUE(WriteSnapshot(g, path).ok());
  auto loaded = ReadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectByteIdentical(g, loaded.value());
}

TEST(SnapshotTest, FingerprintMatchesHeaderAndDistinguishesContent) {
  const BipartiteGraph a = MakeUniformRandom(100, 100, 500, 2, 1);
  const BipartiteGraph b = MakeUniformRandom(100, 100, 500, 2, 2);
  EXPECT_NE(GraphFingerprint(a), GraphFingerprint(b));
  // Same topology, different attribute domain → different fingerprint.
  const BipartiteGraph c = MakeUniformRandom(100, 100, 500, 3, 1);
  EXPECT_NE(GraphFingerprint(a), GraphFingerprint(c));
}

TEST(SnapshotTest, MissingFileIsNotFound) {
  auto loaded = ReadSnapshot(TempPath("does_not_exist.snap"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

class SnapshotCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = testing::RandomSmallGraph(33, 40, 0.15);
    path_ = TempPath("corrupt.snap");
    ASSERT_TRUE(WriteSnapshot(g_, path_).ok());
    bytes_ = ReadFileBytes(path_);
    ASSERT_GT(bytes_.size(), 48u);
  }

  StatusCode LoadCode() {
    auto loaded = ReadSnapshot(path_);
    if (loaded.ok()) return StatusCode::kOk;
    return loaded.status().code();
  }

  /// Same corruption must also be rejected by the mmap loader.
  StatusCode LoadViewCode() {
    auto loaded = ReadSnapshotView(path_);
    if (loaded.ok()) return StatusCode::kOk;
    return loaded.status().code();
  }

  BipartiteGraph g_;
  std::string path_;
  std::string bytes_;
};

TEST_F(SnapshotCorruption, BadMagic) {
  bytes_[0] = 'X';
  WriteFileBytes(path_, bytes_);
  EXPECT_EQ(LoadCode(), StatusCode::kCorruptInput);
  EXPECT_EQ(LoadViewCode(), StatusCode::kCorruptInput);
}

TEST_F(SnapshotCorruption, UnsupportedVersion) {
  bytes_[8] = 99;  // version field follows the 8-byte magic.
  WriteFileBytes(path_, bytes_);
  EXPECT_EQ(LoadCode(), StatusCode::kCorruptInput);
  EXPECT_EQ(LoadViewCode(), StatusCode::kCorruptInput);
}

TEST_F(SnapshotCorruption, TruncatedHeader) {
  WriteFileBytes(path_, bytes_.substr(0, 20));
  EXPECT_EQ(LoadCode(), StatusCode::kCorruptInput);
  EXPECT_EQ(LoadViewCode(), StatusCode::kCorruptInput);
}

TEST_F(SnapshotCorruption, TruncatedPayload) {
  WriteFileBytes(path_, bytes_.substr(0, bytes_.size() - 7));
  EXPECT_EQ(LoadCode(), StatusCode::kCorruptInput);
  EXPECT_EQ(LoadViewCode(), StatusCode::kCorruptInput);
}

TEST_F(SnapshotCorruption, FlippedPayloadByteFailsChecksum) {
  bytes_[bytes_.size() - 1] ^= 0x40;
  WriteFileBytes(path_, bytes_);
  EXPECT_EQ(LoadCode(), StatusCode::kCorruptInput);
  EXPECT_EQ(LoadViewCode(), StatusCode::kCorruptInput);
}

TEST_F(SnapshotCorruption, FlippedMidPayloadByteFailsChecksum) {
  bytes_[48 + (bytes_.size() - 48) / 2] ^= 0x04;
  WriteFileBytes(path_, bytes_);
  EXPECT_EQ(LoadCode(), StatusCode::kCorruptInput);
  EXPECT_EQ(LoadViewCode(), StatusCode::kCorruptInput);
}

TEST_F(SnapshotCorruption, FlippedCountFieldFailsChecksum) {
  bytes_[24] ^= 0x01;  // num_upper, first byte of the count block.
  WriteFileBytes(path_, bytes_);
  EXPECT_EQ(LoadCode(), StatusCode::kCorruptInput);
  EXPECT_EQ(LoadViewCode(), StatusCode::kCorruptInput);
}

TEST_F(SnapshotCorruption, HugeCountFieldRejectedBeforeAllocation) {
  // Flipping a *high* byte of num_edges claims a multi-petabyte payload;
  // the loader must bound counts by the file size before sizing any
  // vector (a length_error/OOM here would crash a resident server).
  bytes_[39] ^= 0x80;  // num_edges occupies bytes 32..39.
  WriteFileBytes(path_, bytes_);
  EXPECT_EQ(LoadCode(), StatusCode::kCorruptInput);
  EXPECT_EQ(LoadViewCode(), StatusCode::kCorruptInput);

  bytes_[39] ^= 0x80;
  bytes_[27] ^= 0x40;  // and the same for num_upper (bytes 24..27).
  WriteFileBytes(path_, bytes_);
  EXPECT_EQ(LoadCode(), StatusCode::kCorruptInput);
  EXPECT_EQ(LoadViewCode(), StatusCode::kCorruptInput);
}

TEST_F(SnapshotCorruption, TrailingGarbageRejected) {
  WriteFileBytes(path_, bytes_ + "extra");
  EXPECT_EQ(LoadCode(), StatusCode::kCorruptInput);
  EXPECT_EQ(LoadViewCode(), StatusCode::kCorruptInput);
}

TEST_F(SnapshotCorruption, EmptyFileRejected) {
  WriteFileBytes(path_, "");
  EXPECT_EQ(LoadCode(), StatusCode::kCorruptInput);
  EXPECT_EQ(LoadViewCode(), StatusCode::kCorruptInput);
}

TEST_F(SnapshotCorruption, TextFileRejected) {
  WriteFileBytes(path_, "%fairbc 1 2 2 1 1\nE 0 0\n");
  EXPECT_EQ(LoadCode(), StatusCode::kCorruptInput);
  EXPECT_EQ(LoadViewCode(), StatusCode::kCorruptInput);
}

TEST(SnapshotViewTest, MissingFileIsNotFound) {
  auto loaded = ReadSnapshotView(TempPath("view_does_not_exist.snap"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotViewTest, DirectoryIsCorruptInput) {
  const std::string dir = ::testing::TempDir();
  EXPECT_EQ(ReadSnapshot(dir).status().code(), StatusCode::kCorruptInput);
  EXPECT_EQ(ReadSnapshotView(dir).status().code(), StatusCode::kCorruptInput);
  EXPECT_EQ(ProbeSnapshot(dir).status().code(), StatusCode::kCorruptInput);
}

/// Serializes `g` in the (unpadded) version-1 layout, which WriteSnapshot
/// no longer emits: the count block + six raw arrays, version field 1.
/// The checksum definition is identical across versions.
void WriteV1Snapshot(const BipartiteGraph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(kSnapshotMagic, sizeof(kSnapshotMagic));
  const std::uint32_t version = 1;
  const std::uint32_t reserved = 0;
  const std::uint64_t checksum = GraphFingerprint(g);
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&reserved), sizeof(reserved));
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  const std::uint32_t num_upper = g.NumUpper();
  const std::uint32_t num_lower = g.NumLower();
  const std::uint64_t num_edges = g.NumEdges();
  const std::uint16_t num_upper_attrs = g.NumAttrs(Side::kUpper);
  const std::uint16_t num_lower_attrs = g.NumAttrs(Side::kLower);
  const std::uint32_t counts_reserved = 0;
  out.write(reinterpret_cast<const char*>(&num_upper), sizeof(num_upper));
  out.write(reinterpret_cast<const char*>(&num_lower), sizeof(num_lower));
  out.write(reinterpret_cast<const char*>(&num_edges), sizeof(num_edges));
  out.write(reinterpret_cast<const char*>(&num_upper_attrs),
            sizeof(num_upper_attrs));
  out.write(reinterpret_cast<const char*>(&num_lower_attrs),
            sizeof(num_lower_attrs));
  out.write(reinterpret_cast<const char*>(&counts_reserved),
            sizeof(counts_reserved));
  auto write_span = [&out](const auto span) {
    out.write(reinterpret_cast<const char*>(span.data()),
              static_cast<std::streamsize>(span.size_bytes()));
  };
  write_span(g.Offsets(Side::kUpper));
  write_span(g.NeighborArray(Side::kUpper));
  write_span(g.Offsets(Side::kLower));
  write_span(g.NeighborArray(Side::kLower));
  write_span(g.AttrArray(Side::kUpper));
  write_span(g.AttrArray(Side::kLower));
  ASSERT_TRUE(out.good());
}

/// Version 1 (the unpadded layout) is no longer read: every entry point
/// rejects it as an unsupported version.
TEST(SnapshotViewTest, Version1FilesAreRejected) {
  const BipartiteGraph g = MakeUniformRandom(101, 77, 900, 3, 11);
  const std::string path = TempPath("v1.snap");
  WriteV1Snapshot(g, path);

  const Status statuses[] = {ReadSnapshot(path).status(),
                             ReadSnapshotView(path).status(),
                             ProbeSnapshot(path).status()};
  for (const Status& st : statuses) {
    EXPECT_EQ(st.code(), StatusCode::kCorruptInput);
    EXPECT_NE(st.message().find("unsupported snapshot version 1"),
              std::string::npos)
        << st.ToString();
  }
}

/// Corruption suite for the v3 (compressed) format. The v3 layout is
///   [0,48)   common header (magic, version, content checksum, counts)
///   [48,112) v3 header: index_checksum u64 @48, block_edges u32 @56,
///            num_upper_blocks u32 @60, num_lower_blocks u32 @64,
///            reserved @68, then five u64 section sizes @72..112
///   [112, +24*(nub+nlb))  block index entries
///   four eager varint sections (offsets x2, attrs x2)
///   blocks region (last blocks_bytes bytes of the file)
/// Every mutation must come back as a Status from both loaders and from
/// ProbeSnapshot (which runs the same header parse) — never a throw,
/// crash or huge allocation.
class SnapshotV3Corruption : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = testing::RandomSmallGraph(33, 40, 0.15);
    path_ = TempPath("corrupt_v3.snap");
    SnapshotWriteOptions options;
    options.version = kSnapshotVersionCompressed;
    options.block_edges = 16;  // several blocks per direction.
    ASSERT_TRUE(WriteSnapshot(g_, path_, options).ok());
    bytes_ = ReadFileBytes(path_);
    ASSERT_GT(bytes_.size(), 112u);
    ASSERT_GE(NumBlocks(), 4u) << "graph too small to exercise blocks";
  }

  std::uint32_t U32At(std::size_t off) const {
    std::uint32_t v = 0;
    std::memcpy(&v, bytes_.data() + off, sizeof(v));
    return v;
  }
  std::uint64_t U64At(std::size_t off) const {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes_.data() + off, sizeof(v));
    return v;
  }

  std::uint32_t NumBlocks() const { return U32At(60) + U32At(64); }
  std::size_t IndexEnd() const { return 112 + 24u * NumBlocks(); }
  std::size_t BlocksStart() const {
    return bytes_.size() - static_cast<std::size_t>(U64At(104));
  }

  /// Every section boundary, in file order (excluding offset 0 and the
  /// full file size).
  std::vector<std::size_t> SectionBoundaries() const {
    std::vector<std::size_t> b = {48, 112, IndexEnd()};
    std::size_t pos = IndexEnd();
    for (std::size_t size_field : {72u, 80u, 88u, 96u}) {
      pos += static_cast<std::size_t>(U64At(size_field));
      b.push_back(pos);
    }
    return b;  // pos + blocks_bytes == file size.
  }

  /// Recomputes index_checksum after a deliberate header/index edit, so
  /// tests can reach the guards *behind* the checksum (a forged file).
  void ReforgeIndexChecksum() {
    std::uint64_t state = Fnv1a64(bytes_.data() + 24, 24);
    state = Fnv1a64(bytes_.data() + 56, BlocksStart() - 56, state);
    std::memcpy(bytes_.data() + 48, &state, sizeof(state));
  }

  StatusCode LoadCode() {
    auto loaded = ReadSnapshot(path_);
    if (loaded.ok()) return StatusCode::kOk;
    return loaded.status().code();
  }
  StatusCode LoadViewCode() {
    auto loaded = ReadSnapshotView(path_);
    if (loaded.ok()) return StatusCode::kOk;
    return loaded.status().code();
  }
  StatusCode ProbeCode() {
    auto probed = ProbeSnapshot(path_);
    if (probed.ok()) return StatusCode::kOk;
    return probed.status().code();
  }
  void ExpectAllLoadersReject(StatusCode code = StatusCode::kCorruptInput) {
    EXPECT_EQ(LoadCode(), code);
    EXPECT_EQ(LoadViewCode(), code);
    EXPECT_EQ(ProbeCode(), code);
  }

  BipartiteGraph g_;
  std::string path_;
  std::string bytes_;
};

TEST_F(SnapshotV3Corruption, IntactFileLoadsEverywhere) {
  EXPECT_EQ(LoadCode(), StatusCode::kOk);
  EXPECT_EQ(LoadViewCode(), StatusCode::kOk);
  EXPECT_EQ(ProbeCode(), StatusCode::kOk);
}

TEST_F(SnapshotV3Corruption, TruncationAtEverySectionBoundary) {
  for (std::size_t boundary : SectionBoundaries()) {
    for (std::size_t cut : {boundary, boundary - 1}) {
      WriteFileBytes(path_, bytes_.substr(0, cut));
      ExpectAllLoadersReject();
    }
  }
  // One byte short of the full file (inside the blocks region).
  WriteFileBytes(path_, bytes_.substr(0, bytes_.size() - 1));
  ExpectAllLoadersReject();
}

TEST_F(SnapshotV3Corruption, TrailingGarbageRejected) {
  WriteFileBytes(path_, bytes_ + "extra");
  ExpectAllLoadersReject();
}

TEST_F(SnapshotV3Corruption, BitFlipInBlockIndexFailsIndexChecksum) {
  // One flip per index entry field class: offset, bytes, checksum, codec.
  for (std::size_t off : {std::size_t{112}, std::size_t{112 + 8},
                          std::size_t{112 + 12}, std::size_t{112 + 16},
                          IndexEnd() - 1}) {
    std::string mutated = bytes_;
    mutated[off] ^= 0x10;
    WriteFileBytes(path_, mutated);
    ExpectAllLoadersReject();
  }
}

TEST_F(SnapshotV3Corruption, BitFlipInEagerSectionsFailsIndexChecksum) {
  const std::size_t mid = IndexEnd() + (BlocksStart() - IndexEnd()) / 2;
  bytes_[mid] ^= 0x01;
  WriteFileBytes(path_, bytes_);
  ExpectAllLoadersReject();
}

TEST_F(SnapshotV3Corruption, BitFlipInCompressedBlockFailsBlockChecksum) {
  // Metadata stays intact, so the header parse (and ProbeSnapshot)
  // accepts the file — the corruption must then be caught by the
  // per-block checksum on decode, before the fingerprint re-check.
  for (std::size_t off : {BlocksStart(), bytes_.size() - 1,
                          BlocksStart() + (bytes_.size() - BlocksStart()) / 2}) {
    std::string mutated = bytes_;
    mutated[off] ^= 0x20;
    WriteFileBytes(path_, mutated);
    EXPECT_EQ(ProbeCode(), StatusCode::kOk);
    for (const Status& st :
         {ReadSnapshot(path_).status(), ReadSnapshotView(path_).status()}) {
      EXPECT_EQ(st.code(), StatusCode::kCorruptInput);
      EXPECT_NE(st.message().find("block checksum"), std::string::npos)
          << st.ToString();
    }
  }
}

TEST_F(SnapshotV3Corruption, HugeCountsRejectedBeforeAllocation) {
  // A flipped high count byte claims a petabyte payload; the size and
  // index-checksum checks must fire before any count-derived allocation
  // (an OOM or length_error here would take down a resident server).
  bytes_[39] ^= 0x80;  // num_edges high byte (bytes 32..39).
  WriteFileBytes(path_, bytes_);
  ExpectAllLoadersReject();

  bytes_[39] ^= 0x80;
  bytes_[27] ^= 0x40;  // num_upper high byte (bytes 24..27).
  WriteFileBytes(path_, bytes_);
  ExpectAllLoadersReject();
}

TEST_F(SnapshotV3Corruption, ForgedHugeCountsStillRejected) {
  // Forge the index checksum after inflating num_edges: the checksum
  // passes, so the structural guards behind it (section-size consistency
  // against the real file length) must reject the file on their own.
  bytes_[39] ^= 0x80;
  ReforgeIndexChecksum();
  WriteFileBytes(path_, bytes_);
  ExpectAllLoadersReject();
}

TEST_F(SnapshotV3Corruption, ForgedZeroBlockEdgesRejected) {
  // block_edges = 0 with a matching forged checksum must hit the
  // explicit divide-by-zero guard, not a SIGFPE.
  std::memset(bytes_.data() + 56, 0, 4);
  ReforgeIndexChecksum();
  WriteFileBytes(path_, bytes_);
  ExpectAllLoadersReject();
}

TEST_F(SnapshotV3Corruption, ForgedBlockCountMismatchRejected) {
  // Inflate num_upper_blocks (with a forged checksum): the claimed index
  // no longer matches ceil(num_edges / block_edges) and must be
  // rejected before the index is walked.
  bytes_[60] = static_cast<char>(bytes_[60] + 1);
  ReforgeIndexChecksum();
  WriteFileBytes(path_, bytes_);
  ExpectAllLoadersReject();
}

TEST_F(SnapshotV3Corruption, ForgedIndexEntryGeometryRejected) {
  // Grow the first block's `bytes` field and forge the checksum: entries
  // no longer tile the blocks region exactly and must be rejected by the
  // header parse, before any entry-relative pointer is formed.
  std::uint32_t first_bytes = U32At(112 + 8);
  first_bytes += 1;
  std::memcpy(bytes_.data() + 112 + 8, &first_bytes, sizeof(first_bytes));
  ReforgeIndexChecksum();
  WriteFileBytes(path_, bytes_);
  ExpectAllLoadersReject();
}

TEST_F(SnapshotV3Corruption, ForgedCountsBeyondSectionBytesRejected) {
  // A hand-built 1x1 file that passes every size, tiling and checksum
  // check, but whose one block per direction claims 2^24 edges from 8
  // bytes. Every coded value takes at least one bit, so the header parse
  // must reject it before a decoder sizes anything from num_edges.
  const std::uint64_t num_edges = std::uint64_t{1} << 24;
  const std::string block(8, '\0');  // eight varint zeros.
  std::string offsets;
  AppendVarint(&offsets, 0);
  AppendVarint(&offsets, num_edges);
  auto forge = [&](std::uint32_t num_vertices, const std::string& attrs) {
    std::string f(kSnapshotMagic, sizeof(kSnapshotMagic));
    auto put = [&f](auto v) {
      f.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    put(kSnapshotVersionCompressed);
    put(std::uint32_t{0});
    put(std::uint64_t{0});  // content fingerprint: never reached.
    put(num_vertices);      // num_upper
    put(num_vertices);      // num_lower
    put(num_edges);
    put(std::uint16_t{1});  // attr domains
    put(std::uint16_t{1});
    put(std::uint32_t{0});
    put(std::uint64_t{0});  // index_checksum: reforged below.
    put(std::uint32_t{0xFFFFFFFFu});  // block_edges: one block per side.
    put(std::uint32_t{1});
    put(std::uint32_t{1});
    put(std::uint32_t{0});
    for (std::uint64_t bytes : {offsets.size(), offsets.size(), attrs.size(),
                                attrs.size(), 2 * block.size()}) {
      put(bytes);
    }
    for (std::uint64_t offset : {std::uint64_t{0}, std::uint64_t{block.size()}}) {
      put(offset);
      put(static_cast<std::uint32_t>(block.size()));
      const std::uint64_t h = Fnv1a64(block.data(), block.size());
      put(static_cast<std::uint32_t>(h ^ (h >> 32)));
      put(std::uint16_t{0});  // varint codec.
      put(std::uint16_t{0});
      put(std::uint32_t{0});
    }
    return f + offsets + offsets + attrs + attrs + block + block;
  };

  bytes_ = forge(1, std::string(1, '\0'));
  ReforgeIndexChecksum();
  WriteFileBytes(path_, bytes_);
  ExpectAllLoadersReject();
  EXPECT_NE(ReadSnapshot(path_).status().message().find(
                "block too short for its edge count"),
            std::string::npos);

  // The same bound for vertex counts: one byte per varint, so 1000
  // claimed vertices cannot come from 1-byte attr sections.
  bytes_ = forge(1000, std::string(1, '\0'));
  ReforgeIndexChecksum();
  WriteFileBytes(path_, bytes_);
  ExpectAllLoadersReject();
  EXPECT_NE(ProbeSnapshot(path_).status().message().find(
                "too short for its vertex count"),
            std::string::npos);
}

}  // namespace
}  // namespace fairbc
