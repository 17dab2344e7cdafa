#include <gtest/gtest.h>

#include <fstream>

#include "core/pipeline.h"
#include "graph/biclique_io.h"
#include "test_util.h"

namespace fairbc {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/fairbc_bio_" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

TEST(BicliqueIo, RoundTrip) {
  std::vector<Biclique> in;
  in.push_back(Biclique{{0, 2, 5}, {1, 3}});
  in.push_back(Biclique{{7}, {0, 1, 2, 9}});
  std::string path = TempPath("roundtrip.txt");
  ASSERT_TRUE(WriteBicliques(in, path).ok());
  auto out = ReadBicliques(path);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value(), in);
}

TEST(BicliqueIo, EmptySet) {
  std::string path = TempPath("empty.txt");
  ASSERT_TRUE(WriteBicliques({}, path).ok());
  auto out = ReadBicliques(path);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().empty());
}

TEST(BicliqueIo, RoundTripRealEnumeration) {
  BipartiteGraph g = testing::RandomSmallGraph(31, 10, 0.5);
  FairBicliqueParams params{1, 1, 1, 0.0};
  CollectSink sink;
  RunEnumeration(g, FairModel::kSsfbc, FairAlgo::kPlusPlus, params, {},
                 sink.AsSink());
  std::string path = TempPath("real.txt");
  ASSERT_TRUE(WriteBicliques(sink.results(), path).ok());
  auto out = ReadBicliques(path);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), sink.results());
}

TEST(BicliqueIo, MissingFile) {
  auto out = ReadBicliques(TempPath("does_not_exist"));
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kNotFound);
}

TEST(BicliqueIo, MissingSeparator) {
  std::string path = TempPath("nosep.txt");
  WriteFile(path, "U 1 2 3\n");
  auto out = ReadBicliques(path);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruptInput);
}

TEST(BicliqueIo, BadLeadingTag) {
  std::string path = TempPath("badtag.txt");
  WriteFile(path, "X 1 ; V 2\n");
  EXPECT_FALSE(ReadBicliques(path).ok());
}

TEST(BicliqueIo, BadVertexId) {
  std::string path = TempPath("badid.txt");
  WriteFile(path, "U 1 banana ; V 2\n");
  EXPECT_FALSE(ReadBicliques(path).ok());
}

TEST(BicliqueIo, SkipsBlankLines) {
  std::string path = TempPath("blank.txt");
  WriteFile(path, "U 1 ; V 2\n\nU 3 ; V 4\n");
  auto out = ReadBicliques(path);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 2u);
}

}  // namespace
}  // namespace fairbc
