#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "graph/generators.h"
#include "graph/io.h"

namespace fairbc {
namespace {

class IoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/fairbc_io_" + name;
  }
  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    out << content;
  }
};

TEST_F(IoTest, EdgeListRoundTrip) {
  std::string path = TempPath("edges.txt");
  WriteFile(path,
            "% comment line\n"
            "0 0\n"
            "0 1\n"
            "\n"
            "2 1\n");
  auto result = ReadEdgeList(path);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const BipartiteGraph& g = result.value();
  EXPECT_EQ(g.NumUpper(), 3u);
  EXPECT_EQ(g.NumLower(), 2u);
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_TRUE(g.HasEdge(2, 1));
}

TEST_F(IoTest, EdgeListMissingFile) {
  auto result = ReadEdgeList(TempPath("does_not_exist"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(IoTest, EdgeListMalformed) {
  std::string path = TempPath("bad_edges.txt");
  WriteFile(path, "0 zero\n");
  auto result = ReadEdgeList(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruptInput);
}

TEST_F(IoTest, EdgeListNegativeIds) {
  std::string path = TempPath("neg_edges.txt");
  WriteFile(path, "-1 2\n");
  auto result = ReadEdgeList(path);
  EXPECT_FALSE(result.ok());
}

TEST_F(IoTest, AttributedRoundTrip) {
  BipartiteGraph g = MakeUniformRandom(20, 15, 60, 2, /*seed=*/3);
  std::string path = TempPath("attr.fbg");
  ASSERT_TRUE(WriteAttributedGraph(g, path).ok());
  auto result = ReadAttributedGraph(path);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const BipartiteGraph& h = result.value();
  EXPECT_EQ(h.NumUpper(), g.NumUpper());
  EXPECT_EQ(h.NumLower(), g.NumLower());
  EXPECT_EQ(h.NumEdges(), g.NumEdges());
  for (VertexId u = 0; u < g.NumUpper(); ++u) {
    EXPECT_EQ(h.Attr(Side::kUpper, u), g.Attr(Side::kUpper, u));
    auto a = g.Neighbors(Side::kUpper, u);
    auto b = h.Neighbors(Side::kUpper, u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
  for (VertexId v = 0; v < g.NumLower(); ++v) {
    EXPECT_EQ(h.Attr(Side::kLower, v), g.Attr(Side::kLower, v));
  }
}

TEST_F(IoTest, AttributedMissingHeader) {
  std::string path = TempPath("no_header.fbg");
  WriteFile(path, "E 0 0\n");
  auto result = ReadAttributedGraph(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruptInput);
}

TEST_F(IoTest, AttributedBadVersion) {
  std::string path = TempPath("bad_version.fbg");
  WriteFile(path, "%fairbc 9 2 2 2 2\nE 0 0\n");
  auto result = ReadAttributedGraph(path);
  EXPECT_FALSE(result.ok());
}

TEST_F(IoTest, AttributedEdgeOutOfRange) {
  std::string path = TempPath("oob.fbg");
  WriteFile(path, "%fairbc 1 2 2 2 2\nE 0 5\n");
  auto result = ReadAttributedGraph(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruptInput);
}

TEST_F(IoTest, AttributedAttrOutOfDomain) {
  std::string path = TempPath("bad_attr.fbg");
  WriteFile(path, "%fairbc 1 2 2 2 2\nV 0 3\nE 0 0\n");
  auto result = ReadAttributedGraph(path);
  EXPECT_FALSE(result.ok());
}

TEST_F(IoTest, AttributedUnknownTag) {
  std::string path = TempPath("bad_tag.fbg");
  WriteFile(path, "%fairbc 1 2 2 2 2\nX 0 0\n");
  auto result = ReadAttributedGraph(path);
  EXPECT_FALSE(result.ok());
}

TEST_F(IoTest, EdgeListRejectsIdsPastTheSentinel) {
  // kInvalidVertex itself would wrap the builder's id + 1 side size; ids
  // past 32 bits used to truncate silently.
  for (const char* edge :
       {"4294967295 0\n", "0 4294967295\n", "4294967296 0\n",
        "0 18446744073709551617\n"}) {
    std::string path = TempPath("sentinel_edges.txt");
    WriteFile(path, edge);
    auto result = ReadEdgeList(path);
    ASSERT_FALSE(result.ok()) << edge;
    EXPECT_EQ(result.status().code(), StatusCode::kCorruptInput) << edge;
  }
}

TEST_F(IoTest, AttributedHeaderRangeChecks) {
  // 65536 attribute values used to abort in the builder, 65537 wrapped to
  // 1, and a vertex count of 2^32 + 2 wrapped to 2.
  for (const char* header :
       {"%fairbc 1 2 2 65536 2\n", "%fairbc 1 2 2 2 65537\n",
        "%fairbc 1 4294967298 2 2 2\n", "%fairbc 1 2 4294967295 2 2\n",
        "%fairbc 1 2 2 0 2\n"}) {
    std::string path = TempPath("header_range.fbg");
    WriteFile(path, std::string(header) + "E 0 0\n");
    auto result = ReadAttributedGraph(path);
    ASSERT_FALSE(result.ok()) << header;
    EXPECT_EQ(result.status().code(), StatusCode::kCorruptInput) << header;
  }
  std::string path = TempPath("header_max_attrs.fbg");
  WriteFile(path, "%fairbc 1 2 2 65535 2\nU 1 65534\nE 1 0\n");
  auto result = ReadAttributedGraph(path);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().NumAttrs(Side::kUpper), 65535);
  EXPECT_EQ(result.value().Attr(Side::kUpper, 1), 65534);
}

TEST_F(IoTest, ReadersRejectSidesPastTheLimitBeforeAllocating) {
  // The builder sizes a side as max id + 1 (or the declared count) up
  // front: one line naming id 4294967293 used to ask for ~34 GB of
  // offsets. Ids must lie below kMaxSideVertices, counts at most at it.
  for (const char* edge : {"4294967293 0\n", "20000000 0\n", "0 20000000\n"}) {
    std::string path = TempPath("huge_edges.txt");
    WriteFile(path, edge);
    auto result = ReadEdgeList(path);
    ASSERT_FALSE(result.ok()) << edge;
    EXPECT_EQ(result.status().code(), StatusCode::kCorruptInput) << edge;
  }
  for (const char* header :
       {"%fairbc 1 4000000000 2 2 2\n", "%fairbc 1 2 20000001 2 2\n"}) {
    std::string path = TempPath("huge_header.fbg");
    WriteFile(path, std::string(header) + "E 0 0\n");
    auto result = ReadAttributedGraph(path);
    ASSERT_FALSE(result.ok()) << header;
    EXPECT_EQ(result.status().code(), StatusCode::kCorruptInput) << header;
  }
}

// Fuzz: seeded xorshift mutations, as in snapshot_codec_test. Every input
// loads as a valid graph or fails with a typed error; ASan/UBSan turn the
// loop into a no-UB check. Mutations replace bytes (never insert), so a
// merged number has at most a few digits and no input allocates much.
TEST_F(IoTest, ReadersSurviveMutations) {
  const std::string attributed =
      "%fairbc 1 6 5 2 3\n"
      "U 0 1\nU 5 0\nV 2 2\nV 4 1\n"
      "E 0 0\nE 0 4\nE 1 2\nE 3 3\nE 5 1\nE 5 4\n";
  const std::string edges = "% edges\n0 1\n2 3\n4 0\n1 1\n3 2\n";
  const std::string alphabet = "0123456789 -\nEUVX%#9.";
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  const std::string path = TempPath("fuzz.txt");
  auto check = [&](bool attributed_format, const std::string& bytes) {
    WriteFile(path, bytes);
    auto result = attributed_format ? ReadAttributedGraph(path)
                                    : ReadEdgeList(path);
    if (result.ok()) {
      EXPECT_TRUE(result.value().Validate().ok()) << bytes;
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kCorruptInput) << bytes;
    }
  };
  for (int round = 0; round < 1500; ++round) {
    const bool attributed_format = round % 2 == 0;
    std::string bytes = attributed_format ? attributed : edges;
    const int flips = 1 + static_cast<int>(next() % 2);
    for (int f = 0; f < flips; ++f) {
      bytes[next() % bytes.size()] = alphabet[next() % alphabet.size()];
    }
    check(attributed_format, bytes);
  }
  for (std::size_t cut = 0; cut < attributed.size(); ++cut) {
    check(true, attributed.substr(0, cut));
  }
}

}  // namespace
}  // namespace fairbc
