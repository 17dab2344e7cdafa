// Compressed snapshot (v3) codec tests: varint/Rice block codec units,
// byte-identical round-trip properties across every generator family and
// attribute skew at multiple block sizes (including degenerate ones),
// and wire_test-style seeded fuzz loops over the block decoder and whole
// v3 files. The ASan/UBSan and TSan CI jobs run this binary; hostile bytes
// must always come back as Status, never UB, OOM or a wrong-length
// "success".

#include "graph/varint_codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "graph/attr_assign.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/snapshot.h"
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

// ---------------------------------------------------------------------------
// Codec units.
// ---------------------------------------------------------------------------

TEST(VarintTest, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,       1,        127,       128,
                                  16383,   16384,    (1u << 21) - 1,
                                  1u << 21, ~std::uint64_t{0} >> 1,
                                  ~std::uint64_t{0}};
  for (std::uint64_t v : values) {
    std::string bytes;
    AppendVarint(&bytes, v);
    EXPECT_EQ(bytes.size(), VarintSize(v));
    const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
    const unsigned char* end = p + bytes.size();
    std::uint64_t decoded = 0;
    ASSERT_TRUE(ReadVarint(&p, end, &decoded)) << v;
    EXPECT_EQ(decoded, v);
    EXPECT_EQ(p, end);
  }
}

TEST(VarintTest, RejectsTruncationAndOverlongEncodings) {
  std::string bytes;
  AppendVarint(&bytes, ~std::uint64_t{0});
  ASSERT_EQ(bytes.size(), 10u);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
    std::uint64_t v = 0;
    EXPECT_FALSE(ReadVarint(&p, p + cut, &v)) << cut;
  }
  // An 11-byte chain of continuation bytes can never be a u64.
  const std::string overlong(11, '\x80');
  const auto* p = reinterpret_cast<const unsigned char*>(overlong.data());
  std::uint64_t v = 0;
  EXPECT_FALSE(ReadVarint(&p, p + overlong.size(), &v));
  // A 10th byte above 1 would overflow past 64 bits.
  std::string too_big(9, '\x80');
  too_big.push_back('\x02');
  p = reinterpret_cast<const unsigned char*>(too_big.data());
  EXPECT_FALSE(ReadVarint(&p, p + too_big.size(), &v));
}

TEST(RiceTest, RoundTripsAcrossParameters) {
  for (unsigned k : {0u, 1u, 3u, 7u, 13u}) {
    const std::uint64_t values[] = {0, 1, 5, 63, 64, 1000, 123456};
    std::string bytes;
    BitWriter writer(&bytes);
    for (std::uint64_t v : values) AppendRice(&writer, v, k);
    writer.Flush();
    BitReader reader(reinterpret_cast<const unsigned char*>(bytes.data()),
                     bytes.size());
    for (std::uint64_t v : values) {
      std::uint64_t decoded = 0;
      ASSERT_TRUE(ReadRice(&reader, k, &decoded)) << "k=" << k;
      EXPECT_EQ(decoded, v) << "k=" << k;
    }
    EXPECT_LT(reader.RemainingBits(), 8u);
    EXPECT_TRUE(reader.RemainderIsZeroPadding());
  }
}

TEST(RiceTest, LongUnaryRunCannotOverflowTheShift) {
  // A terminated unary run of 128 one-bits claims quotient q = 128; with
  // k = 60 the shift q << k must be rejected, not wrapped into a small
  // "value" that then decodes quietly.
  std::string bytes(16, '\xFF');  // 128 one-bits...
  bytes.push_back('\x00');        // ...then the terminator and k low bits.
  bytes.append(8, '\x00');
  BitReader reader(reinterpret_cast<const unsigned char*>(bytes.data()),
                   bytes.size());
  std::uint64_t v = 0;
  EXPECT_FALSE(ReadRice(&reader, 60, &v));

  // An unterminated all-ones stream must fail at the unary stage.
  const std::string ones(64, '\xFF');
  BitReader ones_reader(reinterpret_cast<const unsigned char*>(ones.data()),
                        ones.size());
  EXPECT_FALSE(ReadRice(&ones_reader, 3, &v));

  // k >= 64 can never be a valid parameter.
  const std::string zero(16, '\x00');
  BitReader zero_reader(reinterpret_cast<const unsigned char*>(zero.data()),
                        zero.size());
  EXPECT_FALSE(ReadRice(&zero_reader, 64, &v));
}

TEST(BlockCodecTest, PicksTheSmallerEncoding) {
  // Near-uniform small gaps: Rice wins over one-byte-per-value varints.
  std::vector<std::uint64_t> uniform(512);
  for (std::size_t i = 0; i < uniform.size(); ++i) uniform[i] = 2 + (i % 3);
  BlockCodec codec = BlockCodec::kVarint;
  std::uint16_t rice_k = 0;
  std::string bytes = EncodeBlock(uniform, &codec, &rice_k);
  EXPECT_EQ(codec, BlockCodec::kRice);
  EXPECT_LT(bytes.size(), uniform.size());  // < 1 byte per value.

  // Heavily skewed values (mostly tiny, occasionally huge): varint wins.
  std::vector<std::uint64_t> skewed(512, 0);
  skewed[0] = ~std::uint64_t{0};
  skewed[256] = ~std::uint64_t{0} >> 1;
  bytes = EncodeBlock(skewed, &codec, &rice_k);
  EXPECT_EQ(codec, BlockCodec::kVarint);

  // Whatever wins must decode back exactly.
  std::vector<std::uint64_t> decoded(uniform.size());
  std::string u_bytes = EncodeBlock(uniform, &codec, &rice_k);
  ASSERT_TRUE(DecodeBlock(u_bytes, codec, rice_k, uniform.size(),
                          decoded.data())
                  .ok());
  EXPECT_EQ(decoded, uniform);
}

TEST(BlockCodecTest, EnforcesExactValueCount) {
  std::vector<std::uint64_t> values(100);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = i * 7;
  BlockCodec codec = BlockCodec::kVarint;
  std::uint16_t rice_k = 0;
  const std::string bytes = EncodeBlock(values, &codec, &rice_k);

  std::vector<std::uint64_t> out(values.size() + 8);
  // Exact count: OK.
  EXPECT_TRUE(DecodeBlock(bytes, codec, rice_k, values.size(), out.data()).ok());
  // Fewer expected than encoded → trailing data must be rejected (a
  // corrupted header count can never silently succeed with extra bytes).
  EXPECT_FALSE(
      DecodeBlock(bytes, codec, rice_k, values.size() - 1, out.data()).ok());
  // More expected than encoded → truncation must be rejected, and the
  // decoder must never write past the expected slots it was given.
  EXPECT_FALSE(
      DecodeBlock(bytes, codec, rice_k, values.size() + 8, out.data()).ok());
  // Truncated bytes.
  EXPECT_FALSE(DecodeBlock(std::string_view(bytes).substr(0, bytes.size() - 1),
                           codec, rice_k, values.size(), out.data())
                   .ok());
  // Unknown codec id.
  EXPECT_FALSE(DecodeBlock(bytes, static_cast<BlockCodec>(7), rice_k,
                           values.size(), out.data())
                   .ok());
}

TEST(BlockCodecTest, EmptyBlockRoundTrips) {
  BlockCodec codec = BlockCodec::kRice;
  std::uint16_t rice_k = 9;
  const std::string bytes = EncodeBlock({}, &codec, &rice_k);
  EXPECT_TRUE(bytes.empty());
  EXPECT_EQ(codec, BlockCodec::kVarint);
  EXPECT_TRUE(DecodeBlock(bytes, codec, rice_k, 0, nullptr).ok());
  EXPECT_FALSE(DecodeBlock("x", codec, rice_k, 0, nullptr).ok());
}

// ---------------------------------------------------------------------------
// v3 round-trip properties: families x attribute skews x block sizes.
// ---------------------------------------------------------------------------

BipartiteGraph FamilyGraph(const std::string& family) {
  if (family == "uniform") return MakeUniformRandom(400, 500, 3000, 3, 19);
  if (family == "powerlaw") return MakePowerLaw(400, 500, 3000, 2.2, 3, 19);
  AffiliationConfig config;
  config.num_upper = 400;
  config.num_lower = 500;
  config.num_communities = 25;
  config.seed = 19;
  return MakeAffiliation(config);
}

BipartiteGraph ApplySkew(const BipartiteGraph& g, AttrAssignment skew) {
  BipartiteGraph upper = ReassignAttrs(g, Side::kUpper, skew, 3, 77);
  return ReassignAttrs(upper, Side::kLower, skew, 3, 78);
}

TEST(SnapshotV3RoundTrip, ByteIdenticalAcrossFamiliesSkewsAndBlockSizes) {
  for (const char* family : {"uniform", "powerlaw", "affiliation"}) {
    const BipartiteGraph base = FamilyGraph(family);
    for (AttrAssignment skew :
         {AttrAssignment::kUniformRandom, AttrAssignment::kByDegree,
          AttrAssignment::kRoundRobin}) {
      const BipartiteGraph g = ApplySkew(base, skew);
      for (std::uint32_t block_edges :
           {std::uint32_t{1}, std::uint32_t{7}, std::uint32_t{64},
            std::uint32_t{256}, kDefaultSnapshotBlockEdges,
            static_cast<std::uint32_t>(g.NumEdges() + 10)}) {
        const std::string path = TempPath("v3_prop.snap");
        SnapshotWriteOptions options;
        options.version = kSnapshotVersionCompressed;
        options.block_edges = block_edges;
        ASSERT_TRUE(WriteSnapshot(g, path, options).ok());
        auto loaded = ReadSnapshot(path);
        ASSERT_TRUE(loaded.ok())
            << family << " block=" << block_edges << ": "
            << loaded.status().ToString();
        ExpectByteIdentical(g, loaded.value());
        EXPECT_TRUE(loaded.value().Validate().ok());
      }
    }
  }
}

TEST(SnapshotV3RoundTrip, StandardFamiliesCompressAtLeastTwofold) {
  for (const char* family : {"uniform", "powerlaw", "affiliation"}) {
    const BipartiteGraph g = FamilyGraph(family);
    const std::string v2 = TempPath("ratio_v2.snap");
    const std::string v3 = TempPath("ratio_v3.snap");
    ASSERT_TRUE(WriteSnapshot(g, v2).ok());
    SnapshotWriteOptions options;
    options.version = kSnapshotVersionCompressed;
    ASSERT_TRUE(WriteSnapshot(g, v3, options).ok());
    const std::uint64_t v2_bytes = ReadFileBytes(v2).size();
    const std::uint64_t v3_bytes = ReadFileBytes(v3).size();
    EXPECT_GE(v2_bytes, 2 * v3_bytes)
        << family << ": v2=" << v2_bytes << " v3=" << v3_bytes;

    auto info = ProbeSnapshot(v3);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info.value().version, kSnapshotVersionCompressed);
    EXPECT_EQ(info.value().file_bytes, v3_bytes);
    EXPECT_EQ(info.value().uncompressed_bytes, v2_bytes);
    EXPECT_EQ(info.value().checksum, GraphFingerprint(g));
    EXPECT_EQ(info.value().num_edges, g.NumEdges());
  }
}

TEST(SnapshotV3RoundTrip, MmapLoaderFallsBackToEagerDecode) {
  const BipartiteGraph g = FamilyGraph("uniform");
  const std::string path = TempPath("v3_view.snap");
  SnapshotWriteOptions options;
  options.version = kSnapshotVersionCompressed;
  ASSERT_TRUE(WriteSnapshot(g, path, options).ok());
  auto view = ReadSnapshotView(path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_FALSE(view.value().IsView());  // compressed sections: owned copy.
  ExpectByteIdentical(g, view.value());
}

TEST(SnapshotV3RoundTrip, DegenerateGraphsRoundTrip) {
  // Empty graph.
  {
    BipartiteGraph g;
    const std::string path = TempPath("v3_empty.snap");
    SnapshotWriteOptions options;
    options.version = kSnapshotVersionCompressed;
    ASSERT_TRUE(WriteSnapshot(g, path, options).ok());
    auto loaded = ReadSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectByteIdentical(g, loaded.value());
    auto info = ProbeSnapshot(path);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info.value().num_blocks, 0u);
  }
  // Single vertex per side, one edge, at the degenerate block sizes.
  {
    BipartiteGraphBuilder builder(1, 1);
    builder.AddEdge(0, 0);
    auto built = builder.Build();
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const BipartiteGraph g = built.value();
    for (std::uint32_t block_edges : {std::uint32_t{1}, std::uint32_t{100}}) {
      const std::string path = TempPath("v3_single.snap");
      SnapshotWriteOptions options;
      options.version = kSnapshotVersionCompressed;
      options.block_edges = block_edges;
      ASSERT_TRUE(WriteSnapshot(g, path, options).ok());
      auto loaded = ReadSnapshot(path);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      ExpectByteIdentical(g, loaded.value());
    }
  }
  // Vertices but no edges (attr sections nonempty, zero blocks).
  {
    BipartiteGraphBuilder builder(5, 7);
    auto built = builder.Build();
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const BipartiteGraph g = built.value();
    const std::string path = TempPath("v3_noedges.snap");
    SnapshotWriteOptions options;
    options.version = kSnapshotVersionCompressed;
    ASSERT_TRUE(WriteSnapshot(g, path, options).ok());
    auto loaded = ReadSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectByteIdentical(g, loaded.value());
  }
}

TEST(SnapshotV3RoundTrip, RewriteIsDeterministic) {
  const BipartiteGraph g = FamilyGraph("powerlaw");
  const std::string p1 = TempPath("v3_det1.snap");
  const std::string p2 = TempPath("v3_det2.snap");
  SnapshotWriteOptions options;
  options.version = kSnapshotVersionCompressed;
  ASSERT_TRUE(WriteSnapshot(g, p1, options).ok());
  ASSERT_TRUE(WriteSnapshot(g, p2, options).ok());
  EXPECT_EQ(ReadFileBytes(p1), ReadFileBytes(p2));
}

TEST(SnapshotV3RoundTrip, ZeroBlockEdgesIsRejectedAtWrite) {
  SnapshotWriteOptions options;
  options.version = kSnapshotVersionCompressed;
  options.block_edges = 0;
  EXPECT_FALSE(
      WriteSnapshot(BipartiteGraph(), TempPath("v3_zero.snap"), options).ok());
}

TEST(SnapshotV3RoundTrip, V2BytesUnderAV3VersionAreRejected) {
  // A raw v2 payload relabelled as version 3 must fail the v3 header
  // parse in every entry point, not be misread as compressed sections.
  const BipartiteGraph g = testing::RandomSmallGraph(5, 20, 0.2);
  const std::string path = TempPath("v2_as_v3.snap");
  ASSERT_TRUE(WriteSnapshot(g, path).ok());
  std::string bytes = ReadFileBytes(path);
  bytes[8] = static_cast<char>(kSnapshotVersionCompressed);
  WriteFileBytes(path, bytes);
  EXPECT_EQ(ReadSnapshot(path).status().code(), StatusCode::kCorruptInput);
  EXPECT_EQ(ReadSnapshotView(path).status().code(),
            StatusCode::kCorruptInput);
  EXPECT_EQ(ProbeSnapshot(path).status().code(), StatusCode::kCorruptInput);
}

// ---------------------------------------------------------------------------
// Fuzz: seeded xorshift mutations, mirroring wire_test. ASan/UBSan turn
// these loops into no-UB proofs for arbitrary flips.
// ---------------------------------------------------------------------------

TEST(SnapshotCodecFuzz, BlockDecoderSurvivesBitFlipsAndGarbage) {
  // A realistic delta-mapped block: gaps plus occasional absolutes.
  std::vector<std::uint64_t> values(700);
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (auto& v : values) v = next() % ((next() % 16 == 0) ? 100000 : 40);
  BlockCodec codec = BlockCodec::kVarint;
  std::uint16_t rice_k = 0;
  const std::string pristine = EncodeBlock(values, &codec, &rice_k);

  std::vector<std::uint64_t> out(values.size());
  for (int round = 0; round < 2000; ++round) {
    std::string bytes = pristine;
    const int flips = 1 + static_cast<int>(next() % 5);
    for (int f = 0; f < flips; ++f) {
      bytes[next() % bytes.size()] ^= static_cast<char>(1u << (next() % 8));
    }
    // Success is allowed (the checksum that catches value corruption
    // lives in the snapshot block index, above this layer) — but the
    // decode must never crash, hang, or claim a different value count.
    (void)DecodeBlock(bytes, codec, rice_k, values.size(), out.data());
  }
  // Random garbage under every codec id and rice parameter.
  for (int round = 0; round < 2000; ++round) {
    std::string bytes;
    const std::size_t len = next() % 64;
    for (std::size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(next() & 0xFF));
    }
    const auto codec_id = static_cast<BlockCodec>(next() % 3);  // incl. bad id.
    const unsigned k = static_cast<unsigned>(next() % 70);      // incl. k >= 64.
    const std::size_t expected = next() % (out.size() + 1);
    (void)DecodeBlock(bytes, codec_id, k, expected, out.data());
  }
}

TEST(SnapshotCodecFuzz, V3LoadersSurviveFileMutations) {
  const BipartiteGraph g = testing::RandomSmallGraph(33, 40, 0.15);
  const std::string path = TempPath("v3_fuzz.snap");
  SnapshotWriteOptions options;
  options.version = kSnapshotVersionCompressed;
  options.block_edges = 16;  // several blocks per side.
  ASSERT_TRUE(WriteSnapshot(g, path, options).ok());
  const std::string pristine = ReadFileBytes(path);
  const std::uint64_t fingerprint = GraphFingerprint(g);

  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int round = 0; round < 800; ++round) {
    std::string bytes = pristine;
    const int flips = 1 + static_cast<int>(next() % 5);
    for (int f = 0; f < flips; ++f) {
      bytes[next() % bytes.size()] ^= static_cast<char>(1u << (next() % 8));
    }
    WriteFileBytes(path, bytes);
    // Eager load: success is only possible when the flips hit ignored
    // bytes (reserved fields), i.e. the content is untouched.
    auto loaded = ReadSnapshot(path);
    if (loaded.ok()) {
      EXPECT_EQ(GraphFingerprint(loaded.value()), fingerprint);
    }
    auto viewed = ReadSnapshotView(path);
    if (viewed.ok()) {
      EXPECT_EQ(GraphFingerprint(viewed.value()), fingerprint);
    }
    // The header parse alone: flips in the blocks region (and in the
    // content fingerprint field) pass it, since only metadata is
    // verified there; the loads above catch them.
    (void)ProbeSnapshot(path);
  }
  // Truncation at every possible length: never a crash, always Status.
  for (std::size_t cut = 0; cut < pristine.size();
       cut += 1 + next() % 97) {
    WriteFileBytes(path, pristine.substr(0, cut));
    EXPECT_FALSE(ReadSnapshot(path).ok()) << "cut=" << cut;
    EXPECT_FALSE(ReadSnapshotView(path).ok()) << "cut=" << cut;
    EXPECT_FALSE(ProbeSnapshot(path).ok()) << "cut=" << cut;
  }
  // Random garbage files.
  for (int round = 0; round < 400; ++round) {
    std::string bytes;
    const std::size_t len = next() % 200;
    for (std::size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(next() & 0xFF));
    }
    WriteFileBytes(path, bytes);
    (void)ReadSnapshot(path);
    (void)ReadSnapshotView(path);
    (void)ProbeSnapshot(path);
  }
}

}  // namespace
}  // namespace fairbc
