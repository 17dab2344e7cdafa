// End-to-end tests of the fairbc_cli binary (gen -> stats -> enum ->
// verify round trip through real process invocations), plus the usage
// errors of fairbc_server. The binary paths are injected by CMake as
// FAIRBC_CLI_PATH and FAIRBC_SERVER_PATH.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/enumerate.h"
#include "core/result_sink.h"
#include "graph/biclique_io.h"
#include "service/query.h"
#include "service/response_json.h"
#include "service/server.h"
#include "service/wire.h"

namespace fairbc {
namespace {

#ifndef FAIRBC_CLI_PATH
#define FAIRBC_CLI_PATH "fairbc_cli"
#endif
#ifndef FAIRBC_SERVER_PATH
#define FAIRBC_SERVER_PATH "fairbc_server"
#endif

struct CommandResult {
  int exit_code;
  std::string output;
};

CommandResult RunTool(const std::string& tool, const std::string& args) {
  std::string out_path = ::testing::TempDir() + "/fairbc_cli_out.txt";
  std::string cmd = tool + " " + args + " > " + out_path + " 2>&1";
  int rc = std::system(cmd.c_str());
  std::ifstream in(out_path);
  std::stringstream ss;
  ss << in.rdbuf();
  return {WEXITSTATUS(rc), ss.str()};
}

CommandResult RunCli(const std::string& args) {
  return RunTool(FAIRBC_CLI_PATH, args);
}

std::string GraphPath() {
  return ::testing::TempDir() + "/fairbc_cli_graph.fbg";
}

TEST(CliEndToEnd, GenStatsEnumVerifyRoundTrip) {
  std::string graph = GraphPath();
  std::string results = ::testing::TempDir() + "/fairbc_cli_results.txt";

  CommandResult gen = RunCli("gen --out=" + graph +
                          " --kind=affiliation --nu=300 --nv=300"
                          " --communities=15 --seed=5");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  EXPECT_NE(gen.output.find("wrote BipartiteGraph"), std::string::npos);

  CommandResult stats = RunCli("stats --graph=" + graph);
  ASSERT_EQ(stats.exit_code, 0) << stats.output;
  EXPECT_NE(stats.output.find("butterflies"), std::string::npos);

  CommandResult enumerate =
      RunCli("enum --graph=" + graph +
          " --model=ssfbc --alpha=2 --beta=2 --delta=1 --out=" + results);
  ASSERT_EQ(enumerate.exit_code, 0) << enumerate.output;
  EXPECT_NE(enumerate.output.find("wrote"), std::string::npos);

  CommandResult verify = RunCli("verify --graph=" + graph +
                             " --results=" + results +
                             " --model=ssfbc --alpha=2 --beta=2 --delta=1");
  ASSERT_EQ(verify.exit_code, 0) << verify.output;
  EXPECT_NE(verify.output.find("OK:"), std::string::npos);
}

TEST(CliEndToEnd, VerifyRejectsWrongParameters) {
  std::string graph = GraphPath();
  std::string results = ::testing::TempDir() + "/fairbc_cli_results2.txt";
  ASSERT_EQ(RunCli("gen --out=" + graph +
                " --kind=affiliation --nu=300 --nv=300 --communities=15"
                " --seed=5")
                .exit_code,
            0);
  ASSERT_EQ(RunCli("enum --graph=" + graph +
                " --model=ssfbc --alpha=2 --beta=2 --delta=1 --out=" + results)
                .exit_code,
            0);
  // Re-verifying under beta=3 must fail: the stored results were maximal
  // for beta=2.
  CommandResult verify = RunCli("verify --graph=" + graph +
                             " --results=" + results +
                             " --model=ssfbc --alpha=2 --beta=3 --delta=1");
  EXPECT_NE(verify.exit_code, 0);
}

TEST(CliEndToEnd, CountOnlyMode) {
  std::string graph = GraphPath();
  ASSERT_EQ(RunCli("gen --out=" + graph +
                " --kind=affiliation --nu=300 --nv=300 --communities=15"
                " --seed=5")
                .exit_code,
            0);
  CommandResult count = RunCli("enum --graph=" + graph +
                            " --model=bsfbc --alpha=1 --beta=1 --delta=1"
                            " --count-only");
  ASSERT_EQ(count.exit_code, 0) << count.output;
  EXPECT_NE(count.output.find("count:"), std::string::npos);
}

// Extracts the value of a flat `"key":value` / `"key":"value"` JSON
// field from a single-line response; empty when absent.
std::string JsonField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  auto pos = json.find(needle);
  if (pos == std::string::npos) return "";
  pos += needle.size();
  std::string out;
  if (json[pos] == '"') {
    for (++pos; pos < json.size() && json[pos] != '"'; ++pos) out += json[pos];
  } else {
    for (; pos < json.size() && json[pos] != ',' && json[pos] != '}'; ++pos) {
      out += json[pos];
    }
  }
  return out;
}

TEST(CliEndToEnd, SnapshotSaveLoadRoundTrip) {
  std::string graph = GraphPath();
  std::string snap = ::testing::TempDir() + "/fairbc_cli_graph.snap";
  ASSERT_EQ(RunCli("gen --out=" + graph +
                " --kind=affiliation --nu=300 --nv=300 --communities=15"
                " --seed=5")
                .exit_code,
            0);

  CommandResult save =
      RunCli("snapshot save --graph=" + graph + " --out=" + snap);
  ASSERT_EQ(save.exit_code, 0) << save.output;
  EXPECT_NE(save.output.find("wrote snapshot"), std::string::npos);

  CommandResult load = RunCli("snapshot load --graph=" + snap);
  ASSERT_EQ(load.exit_code, 0) << load.output;
  EXPECT_NE(load.output.find("loaded snapshot"), std::string::npos);
  // Save and load report the same content version.
  auto version_of = [](const std::string& s) {
    auto pos = s.find("version ");
    return s.substr(pos, 8 + 18);
  };
  EXPECT_EQ(version_of(save.output), version_of(load.output));

  // Corrupt snapshots fail with a Status, not a crash.
  {
    std::ofstream out(snap, std::ios::binary | std::ios::app);
    out << "garbage";
  }
  CommandResult corrupt = RunCli("snapshot load --graph=" + snap);
  EXPECT_NE(corrupt.exit_code, 0);
  EXPECT_NE(corrupt.output.find("CORRUPT_INPUT"), std::string::npos);
}

TEST(CliEndToEnd, JsonOutputMatchesAcrossFormats) {
  std::string graph = GraphPath();
  std::string snap = ::testing::TempDir() + "/fairbc_cli_json.snap";
  ASSERT_EQ(RunCli("gen --out=" + graph +
                " --kind=affiliation --nu=300 --nv=300 --communities=15"
                " --seed=5")
                .exit_code,
            0);
  ASSERT_EQ(RunCli("snapshot save --graph=" + graph + " --out=" + snap)
                .exit_code,
            0);

  const std::string params =
      " --model=ssfbc --alpha=2 --beta=2 --delta=1 --count-only"
      " --output=json";
  CommandResult from_text = RunCli("enum --graph=" + graph + params);
  ASSERT_EQ(from_text.exit_code, 0) << from_text.output;
  CommandResult from_snap =
      RunCli("enum --graph=" + snap + " --format=snapshot" + params);
  ASSERT_EQ(from_snap.exit_code, 0) << from_snap.output;

  // Same graph content → same count and result-set digest, whichever
  // format it was loaded from.
  EXPECT_NE(JsonField(from_text.output, "count"), "");
  EXPECT_EQ(JsonField(from_text.output, "count"),
            JsonField(from_snap.output, "count"));
  EXPECT_NE(JsonField(from_text.output, "digest"), "");
  EXPECT_EQ(JsonField(from_text.output, "digest"),
            JsonField(from_snap.output, "digest"));
  EXPECT_EQ(JsonField(from_text.output, "budget_exhausted"), "false");
}

TEST(CliEndToEnd, EnumRejectsThreadsOutOfRange) {
  std::string graph = GraphPath();
  ASSERT_EQ(RunCli("gen --out=" + graph + " --kind=uniform --nu=20 --nv=20"
                " --edges=50")
                .exit_code,
            0);
  // Without a range check both wrap when cast to unsigned: 2^32 + 1 would
  // run on one thread and 2^32 on every core.
  for (const std::string threads : {"4294967297", "4294967296"}) {
    CommandResult r = RunCli("enum --graph=" + graph +
                             " --model=ssfbc --count-only --threads=" + threads);
    EXPECT_NE(r.exit_code, 0) << threads;
    EXPECT_NE(r.output.find("--threads must be in [0, 1024]"),
              std::string::npos)
        << r.output;
  }
}

// The server's window for the fairness parameters: alpha/beta/delta in
// [0, 1e9] and theta in [0, 1], not NaN. Unchecked, --alpha=4294967297
// wrapped to 1 and --delta=-1 to 2^32 - 1, and --theta=-1 ran as 0.
const char* const kOutOfRangeParams[][2] = {
    {"--alpha=4294967297", "--alpha must be in [0, 1000000000]"},
    {"--alpha=-1", "--alpha must be in [0, 1000000000]"},
    {"--beta=1000000001", "--beta must be in [0, 1000000000]"},
    {"--delta=-1", "--delta must be in [0, 1000000000]"},
    {"--theta=-1", "--theta must be in [0, 1]"},
    {"--theta=1.5", "--theta must be in [0, 1]"},
    {"--theta=nan", "--theta must be in [0, 1]"},
};

TEST(CliEndToEnd, EnumRejectsParamsOutOfRange) {
  std::string graph = GraphPath();
  ASSERT_EQ(RunCli("gen --out=" + graph + " --kind=uniform --nu=20 --nv=20"
                " --edges=50")
                .exit_code,
            0);
  for (const auto& [flag, message] : kOutOfRangeParams) {
    CommandResult r =
        RunCli("enum --graph=" + graph + " --model=ssfbc --count-only " + flag);
    EXPECT_EQ(r.exit_code, 2) << flag << ": " << r.output;
    EXPECT_NE(r.output.find(message), std::string::npos) << r.output;
  }
  // The window's edges are accepted.
  for (const std::string flag : {"--alpha=0", "--delta=1000000000",
                                 "--theta=0", "--theta=1"}) {
    CommandResult r =
        RunCli("enum --graph=" + graph + " --model=ssfbc --count-only " + flag);
    EXPECT_EQ(r.exit_code, 0) << flag << ": " << r.output;
  }
}

TEST(CliEndToEnd, VerifyRejectsParamsOutOfRange) {
  std::string graph = GraphPath();
  std::string results = ::testing::TempDir() + "/fairbc_cli_results4.txt";
  ASSERT_EQ(RunCli("gen --out=" + graph + " --kind=uniform --nu=20 --nv=20"
                " --edges=50")
                .exit_code,
            0);
  ASSERT_EQ(RunCli("enum --graph=" + graph + " --model=ssfbc --out=" + results)
                .exit_code,
            0);
  for (const auto& [flag, message] : kOutOfRangeParams) {
    CommandResult r = RunCli("verify --graph=" + graph + " --results=" +
                             results + " --model=ssfbc " + flag);
    EXPECT_EQ(r.exit_code, 2) << flag << ": " << r.output;
    EXPECT_NE(r.output.find(message), std::string::npos) << r.output;
  }
}

// An unparsable typed flag used to fall back to its default and run:
// --alpha=abc enumerated as alpha=1 and --threads=abc ran on one thread,
// both exiting 0. They are usage errors now, and name the flag.
TEST(CliEndToEnd, UnparsableFlagValuesAreUsageErrors) {
  std::string graph = GraphPath();
  ASSERT_EQ(RunCli("gen --out=" + graph + " --kind=uniform --nu=20 --nv=20"
                " --edges=50")
                .exit_code,
            0);
  for (const std::string flag :
       {"--alpha=abc", "--threads=abc", "--theta=0.5x", "--budget=soon"}) {
    const std::string name = flag.substr(2, flag.find('=') - 2);
    CommandResult r =
        RunCli("enum --graph=" + graph + " --model=ssfbc --count-only " + flag);
    EXPECT_EQ(r.exit_code, 2) << flag << ": " << r.output;
    EXPECT_NE(r.output.find("--" + name + " has an unparsable value"),
              std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("count:"), std::string::npos)
        << flag << " must not run: " << r.output;
  }
  CommandResult gen = RunCli("gen --out=" + graph + " --kind=uniform --nu=2x");
  EXPECT_EQ(gen.exit_code, 2) << gen.output;
  EXPECT_NE(gen.output.find("--nu has an unparsable value"), std::string::npos)
      << gen.output;
  // Malformed flag syntax is a usage error too; these exited 1.
  const std::string cli = FAIRBC_CLI_PATH;
  const std::string server = std::string("timeout 60 ") + FAIRBC_SERVER_PATH;
  const std::string syntax[][3] = {
      {cli, "enum --graph=" + graph + " --", "bare '--' is not a valid flag"},
      {cli, "enum --graph=" + graph + " --=3", "flag with empty name"},
      {server, "-- < /dev/null", "bare '--' is not a valid flag"},
      {server, "--preload=nameonly < /dev/null", "--preload wants NAME=PATH"},
  };
  for (const auto& [tool, args, message] : syntax) {
    CommandResult r = RunTool(tool, args);
    EXPECT_EQ(r.exit_code, 2) << tool << " " << args << ": " << r.output;
    EXPECT_NE(r.output.find(message), std::string::npos) << r.output;
  }
}

// A budget outside the window both server front doors accept (finite and
// >= 0) is a usage error; it used to run with no budget at all. So are
// an out-of-range --top-k or --chunk, which used to exit 1, and a
// --rand-attrs outside `gen`'s attrs window: cast to the 16-bit AttrId,
// 65536 aborted, 65537 ran with one class and -5 was ignored.
TEST(CliEndToEnd, EnumRejectsBudgetTopKAndChunkOutOfRange) {
  std::string graph = GraphPath();
  ASSERT_EQ(RunCli("gen --out=" + graph + " --kind=uniform --nu=20 --nv=20"
                " --edges=50")
                .exit_code,
            0);
  const char* const cases[][2] = {
      {"--budget=-1", "--budget must be a finite number of seconds >= 0"},
      {"--budget=nan", "--budget must be a finite number of seconds >= 0"},
      {"--budget=inf", "--budget must be a finite number of seconds >= 0"},
      {"--top-k=-1", "--top-k must be in [0, 1e9]"},
      {"--top-k=1000000001", "--top-k must be in [0, 1e9]"},
      {"--stream --chunk=0", "--chunk must be in [1, 1e6]"},
      {"--stream --chunk=1000001", "--chunk must be in [1, 1e6]"},
      {"--rand-attrs=65536", "--rand-attrs must be 0 (keep) or in [1, 1024]"},
      {"--rand-attrs=65537", "--rand-attrs must be 0 (keep) or in [1, 1024]"},
      {"--rand-attrs=1025", "--rand-attrs must be 0 (keep) or in [1, 1024]"},
      {"--rand-attrs=-5", "--rand-attrs must be 0 (keep) or in [1, 1024]"},
  };
  for (const auto& [flag, message] : cases) {
    CommandResult r = RunCli("enum --graph=" + graph + " --model=ssfbc " +
                             std::string(flag) + " --output=json");
    EXPECT_EQ(r.exit_code, 2) << flag << ": " << r.output;
    EXPECT_NE(r.output.find(message), std::string::npos) << r.output;
  }
  // The window's edges run.
  for (const std::string flag :
       {"--budget=0", "--budget=30", "--top-k=0", "--rand-attrs=0",
        "--rand-attrs=1", "--rand-attrs=3", "--rand-attrs=1024"}) {
    CommandResult r =
        RunCli("enum --graph=" + graph + " --model=ssfbc --count-only " + flag);
    EXPECT_EQ(r.exit_code, 0) << flag << ": " << r.output;
  }
}

// --- enum output in every mode -------------------------------------------

// The ids of a comma list such as "1,2,3" (empty for "").
std::vector<VertexId> ParseIds(const std::string& list) {
  std::vector<VertexId> ids;
  std::istringstream in(list);
  std::string token;
  while (std::getline(in, token, ',')) {
    ids.push_back(static_cast<VertexId>(std::stoul(token)));
  }
  return ids;
}

// The bicliques of enum's text output, in order: one Biclique::DebugString
// line ("U{1,2} V{3,4}") per result; other lines are skipped.
std::vector<Biclique> TextBicliques(const std::string& output) {
  std::vector<Biclique> out;
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("U{", 0) != 0) continue;
    const auto upper_end = line.find('}');
    const auto lower_begin = line.find("V{");
    EXPECT_NE(lower_begin, std::string::npos) << line;
    Biclique b;
    b.upper = ParseIds(line.substr(2, upper_end - 2));
    b.lower =
        ParseIds(line.substr(lower_begin + 2, line.size() - lower_begin - 3));
    out.push_back(std::move(b));
  }
  return out;
}

// One {"cmd":"chunk",...} line of `enum --stream --output=json`.
struct ChunkLine {
  std::uint64_t seq = 0;
  std::uint64_t results_so_far = 0;
  std::vector<Biclique> bicliques;
};

std::vector<ChunkLine> JsonChunkLines(const std::string& output) {
  std::vector<ChunkLine> chunks;
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"cmd\":\"chunk\"") == std::string::npos) continue;
    ChunkLine chunk;
    chunk.seq = std::stoull(JsonField(line, "seq"));
    chunk.results_so_far = std::stoull(JsonField(line, "results_so_far"));
    // "bicliques":[{"upper":[...],"lower":[...]},...]
    for (auto pos = line.find("{\"upper\":["); pos != std::string::npos;
         pos = line.find("{\"upper\":[", pos + 1)) {
      const auto upper_begin = pos + 10;
      const auto upper_end = line.find(']', upper_begin);
      const auto lower_begin = line.find("\"lower\":[", upper_end) + 9;
      const auto lower_end = line.find(']', lower_begin);
      Biclique b;
      b.upper = ParseIds(line.substr(upper_begin, upper_end - upper_begin));
      b.lower = ParseIds(line.substr(lower_begin, lower_end - lower_begin));
      chunk.bicliques.push_back(std::move(b));
    }
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

// Stream framing of `enum --stream --output=json`: seq contiguous from 1,
// results_so_far cumulative, at most `chunk_results` per line. Returns
// the bicliques of all chunk lines, reassembled in order.
std::vector<Biclique> ReassembleChunks(const std::string& output,
                                       std::size_t chunk_results) {
  std::vector<Biclique> out;
  const std::vector<ChunkLine> chunks = JsonChunkLines(output);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].seq, i + 1);
    EXPECT_LE(chunks[i].bicliques.size(), chunk_results);
    out.insert(out.end(), chunks[i].bicliques.begin(),
               chunks[i].bicliques.end());
    EXPECT_EQ(chunks[i].results_so_far, out.size());
  }
  return out;
}

// The count and digest a JSON summary must report for `set`.
void ExpectJsonSummary(const std::string& output,
                       const std::vector<Biclique>& set,
                       const std::string& label) {
  std::uint64_t digest = 0;
  for (const Biclique& b : set) digest += BicliqueHash(b);
  const std::string summary = output.substr(output.rfind("{\"ok\":true"));
  EXPECT_EQ(JsonField(summary, "cmd"), "enum") << label;
  EXPECT_EQ(JsonField(summary, "count"), std::to_string(set.size())) << label;
  EXPECT_EQ(JsonField(summary, "digest"), JsonHex64(digest)) << label;
}

std::vector<Biclique> ReadResultFile(const std::string& path) {
  auto read = ReadBicliques(path);
  EXPECT_TRUE(read.ok()) << read.status().ToString();
  return read.ok() ? read.value() : std::vector<Biclique>();
}

// Pins what `enum` prints in every output mode against its own --out
// file at --threads=1 (a fixed emission order): text and streamed text
// lines, streamed JSON chunk framing, the JSON count and digest, and for
// each rank the --top-k=5 set, which must be the 5 best of the full set.
TEST(CliEndToEnd, EnumOutputModesAgreeWithTheOutFile) {
  const std::string graph = ::testing::TempDir() + "/fairbc_cli_modes.fbg";
  const std::string file = ::testing::TempDir() + "/fairbc_cli_modes.txt";
  ASSERT_EQ(RunCli("gen --out=" + graph +
                   " --kind=affiliation --nu=300 --nv=300 --communities=15"
                   " --seed=5")
                .exit_code,
            0);
  const std::string enumerate = "enum --graph=" + graph +
                                " --model=ssfbc --alpha=2 --beta=2 --delta=1"
                                " --threads=1";
  CommandResult wrote = RunCli(enumerate + " --out=" + file);
  ASSERT_EQ(wrote.exit_code, 0) << wrote.output;
  const std::vector<Biclique> all = ReadResultFile(file);
  ASSERT_GT(all.size(), 20u);

  CommandResult text = RunCli(enumerate);
  ASSERT_EQ(text.exit_code, 0) << text.output;
  EXPECT_EQ(TextBicliques(text.output), all);

  CommandResult streamed_text = RunCli(enumerate + " --stream --chunk=7");
  ASSERT_EQ(streamed_text.exit_code, 0) << streamed_text.output;
  EXPECT_EQ(TextBicliques(streamed_text.output), all);

  CommandResult streamed_json =
      RunCli(enumerate + " --stream --chunk=7 --output=json");
  ASSERT_EQ(streamed_json.exit_code, 0) << streamed_json.output;
  EXPECT_EQ(ReassembleChunks(streamed_json.output, 7), all);
  ExpectJsonSummary(streamed_json.output, all, "stream json");

  for (const std::string mode : {" --output=json", " --count-only --output=json"}) {
    CommandResult json = RunCli(enumerate + mode);
    ASSERT_EQ(json.exit_code, 0) << json.output;
    ExpectJsonSummary(json.output, all, mode);
  }

  for (TopKRank rank :
       {TopKRank::kWeight, TopKRank::kSize, TopKRank::kBalance}) {
    const std::string label = ToString(rank);
    TopKKeeper keeper(5, rank);
    for (const Biclique& b : all) keeper.Offer(b);
    const std::vector<Biclique> best = keeper.Take();
    ASSERT_EQ(best.size(), 5u) << label;

    const std::string top =
        enumerate + " --top-k=5 --rank=" + std::string(ToString(rank));
    const std::string top_file =
        ::testing::TempDir() + "/fairbc_cli_top_" + label + ".txt";
    CommandResult top_wrote = RunCli(top + " --out=" + top_file);
    ASSERT_EQ(top_wrote.exit_code, 0) << top_wrote.output;
    EXPECT_EQ(ReadResultFile(top_file), best) << label;

    CommandResult top_json = RunCli(top + " --output=json");
    ASSERT_EQ(top_json.exit_code, 0) << top_json.output;
    ExpectJsonSummary(top_json.output, best, label);

    CommandResult top_stream = RunCli(top + " --stream --chunk=2 --output=json");
    ASSERT_EQ(top_stream.exit_code, 0) << top_stream.output;
    EXPECT_EQ(ReassembleChunks(top_stream.output, 2), best) << label;
    ExpectJsonSummary(top_stream.output, best, label + " stream");
  }
}

// --- gen and enum value checks ---------------------------------------------

bool FileExists(const std::string& path) { return std::ifstream(path).good(); }

// `gen` checks its values against the windows the server's `gen` uses and
// writes nothing when one is out of range. Unchecked, --kind=bogus wrote
// an affiliation graph, --attrs=65537 wrapped to one class,
// --communities=0 wrote an edgeless graph, --edges=-1 wrapped, and
// --attrs=0 or a powerlaw --gamma <= 1 aborted in a generator check.
TEST(CliEndToEnd, GenRejectsOutOfRangeValues) {
  const std::string out = ::testing::TempDir() + "/fairbc_cli_gen_bad.fbg";
  const char* const cases[][2] = {
      {"--kind=bogus", "bad kind (uniform|powerlaw|affiliation)"},
      {"--attrs=65537", "attrs must be in [1, 1024]"},
      {"--attrs=0", "attrs must be in [1, 1024]"},
      {"--communities=0", "communities must be in [1, 1e6]"},
      {"--kind=powerlaw --gamma=0.5", "gamma must be in (1, 10]"},
      {"--edges=-1", "edges must be in [0, 2e8]"},
  };
  for (const auto& [flag, message] : cases) {
    std::remove(out.c_str());
    CommandResult r =
        RunCli("gen --out=" + out + " --nu=20 --nv=20 " + std::string(flag));
    EXPECT_EQ(r.exit_code, 2) << flag << ": " << r.output;
    EXPECT_NE(r.output.find(message), std::string::npos) << r.output;
    EXPECT_FALSE(FileExists(out)) << flag << " must not write a graph";
  }
  // The windows' edges run.
  for (const std::string flag :
       {"--kind=uniform --edges=0 --attrs=1", "--attrs=1024",
        "--communities=1", "--kind=powerlaw --edges=40 --gamma=10"}) {
    CommandResult r = RunCli("gen --out=" + out + " --nu=20 --nv=20 " + flag);
    EXPECT_EQ(r.exit_code, 0) << flag << ": " << r.output;
  }
}

// A negative vertex count is rejected before anything is allocated (it
// used to wrap to 4294967295 vertices).
TEST(CliEndToEnd, GenRejectsNegativeVertexCounts) {
  const std::string out = ::testing::TempDir() + "/fairbc_cli_gen_neg.fbg";
  for (const std::string flag : {"--nu=-1", "--nv=-1", "--nu=20000001"}) {
    std::remove(out.c_str());
    CommandResult r = RunCli("gen --out=" + out + " " + flag);
    EXPECT_EQ(r.exit_code, 2) << flag << ": " << r.output;
    EXPECT_NE(r.output.find("nu/nv must be in [1, 2e7]"), std::string::npos)
        << r.output;
    EXPECT_FALSE(FileExists(out)) << flag << " must not write a graph";
  }
}

// A tool flag outside its window is a usage error (exit 2), like one that
// does not parse. The server stops before it loads, listens or reads a
// line (`timeout` turns a server that listened anyway into a failure, not
// a hang), and a refused snapshot save writes nothing.
TEST(CliEndToEnd, OutOfWindowToolFlagsAreUsageErrors) {
  const char* const cases[][2] = {
      {"--threads=2000", "threads"},
      {"--threads=-1", "threads"},
      {"--metrics-port=65536", "metrics-port"},
      {"--port=65536", "port"},
      {"--port=0 --max-sessions=0", "max-sessions"},
      {"--port=0 --max-sessions=1025", "max-sessions"},
      {"--port=0 --reactor-threads=65", "reactor-threads"},
      {"--port=0 --max-inflight=-1", "max-inflight"},
      {"--port=0 --max-request-bytes=63", "max-request-bytes"},
      {"--port=0 --client-deadline-ms=-1", "client-deadline-ms"},
  };
  for (const auto& [flags, name] : cases) {
    CommandResult r = RunTool(std::string("timeout 60 ") + FAIRBC_SERVER_PATH,
                              std::string(flags) + " < /dev/null");
    EXPECT_EQ(r.exit_code, 2) << flags << ": " << r.output;
    EXPECT_NE(r.output.find("--" + std::string(name) + " must be in ["),
              std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("listening"), std::string::npos) << r.output;
  }
  // The connection windows bind only with --port.
  CommandResult stdin_mode =
      RunTool(FAIRBC_SERVER_PATH, "--max-sessions=0 < /dev/null");
  EXPECT_EQ(stdin_mode.exit_code, 0) << stdin_mode.output;

  std::string graph = GraphPath();
  const std::string snap = ::testing::TempDir() + "/fairbc_cli_block.snap";
  ASSERT_EQ(RunCli("gen --out=" + graph + " --kind=uniform --nu=20 --nv=20"
                " --edges=50")
                .exit_code,
            0);
  for (const std::string flag : {"--block-edges=0", "--block-edges=1000000001"}) {
    std::remove(snap.c_str());
    CommandResult r = RunCli("snapshot save --compress --graph=" + graph +
                             " --out=" + snap + " " + flag);
    EXPECT_EQ(r.exit_code, 2) << flag << ": " << r.output;
    EXPECT_NE(r.output.find("--block-edges must be in [1, 1000000000]"),
              std::string::npos)
        << r.output;
    EXPECT_FALSE(FileExists(snap)) << flag << " must not write a snapshot";
  }
  for (const std::string flag : {"--block-edges=1", "--block-edges=1000000000"}) {
    CommandResult r = RunCli("snapshot save --compress --graph=" + graph +
                             " --out=" + snap + " " + flag);
    EXPECT_EQ(r.exit_code, 0) << flag << ": " << r.output;
  }
  std::remove(snap.c_str());
}

// Unknown names are usage errors: --pruning=colorfull and --ordering=idd
// used to run as the defaults, and a bad --model/--algo/--rank exited 1.
// --output=jsn used to print text and --format=snapshto to load the file
// as attr. `verify` used to read an unknown --model as ssfbc.
TEST(CliEndToEnd, EnumAndVerifyRejectUnknownNames) {
  std::string graph = GraphPath();
  std::string results = ::testing::TempDir() + "/fairbc_cli_results5.txt";
  ASSERT_EQ(RunCli("gen --out=" + graph + " --kind=uniform --nu=20 --nv=20"
                " --edges=50")
                .exit_code,
            0);
  const char* const cases[][2] = {
      {"--pruning=colorfull", "bad --pruning (colorful|core|none)"},
      {"--ordering=idd", "bad --ordering (deg|id)"},
      {"--model=ssfb", "bad --model (ssfbc|bsfbc)"},
      {"--algo=ppp", "bad --algo (pp|bcem|naive)"},
      {"--rank=heavy", "bad --rank (weight|size|balance)"},
      {"--output=jsn", "bad --output (text|json)"},
      {"--format=snapshto", "bad --format (edges|attr|snapshot|mmap)"},
  };
  for (const auto& [flag, message] : cases) {
    CommandResult r =
        RunCli("enum --graph=" + graph + " --count-only " + std::string(flag));
    EXPECT_EQ(r.exit_code, 2) << flag << ": " << r.output;
    EXPECT_NE(r.output.find(message), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("count:"), std::string::npos)
        << flag << " must not run: " << r.output;
  }
  for (const std::string flag : {"--pruning=none", "--pruning=core",
                                 "--pruning=colorful", "--ordering=id",
                                 "--ordering=deg", "--output=text",
                                 "--output=json", "--format=attr"}) {
    CommandResult r = RunCli("enum --graph=" + graph + " --count-only " + flag);
    EXPECT_EQ(r.exit_code, 0) << flag << ": " << r.output;
  }

  ASSERT_EQ(RunCli("enum --graph=" + graph + " --out=" + results).exit_code, 0);
  CommandResult verify = RunCli("verify --graph=" + graph + " --results=" +
                                results + " --model=bogus");
  EXPECT_EQ(verify.exit_code, 2) << verify.output;
  EXPECT_NE(verify.output.find("bad --model (ssfbc|bsfbc)"), std::string::npos)
      << verify.output;
  EXPECT_EQ(verify.output.find("OK:"), std::string::npos) << verify.output;
}

TEST(CliEndToEnd, UnknownCommandFails) {
  CommandResult r = RunCli("frobnicate");
  EXPECT_NE(r.exit_code, 0);
}

TEST(CliEndToEnd, MissingGraphFlagFails) {
  CommandResult r = RunCli("stats");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("--graph is required"), std::string::npos);
}

TEST(CliEndToEnd, UnknownFlagWarns) {
  std::string graph = GraphPath();
  ASSERT_EQ(RunCli("gen --out=" + graph + " --kind=uniform --nu=20 --nv=20"
                " --edges=50")
                .exit_code,
            0);
  CommandResult r = RunCli("stats --graph=" + graph + " --bogus-flag=1");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("unknown flag --bogus-flag"), std::string::npos);
}

// Flags a command never read because it stopped on a usage error are not
// unknown: only a successful run warns, and then about real typos only.
TEST(CliEndToEnd, UnknownFlagWarningsOnlyAfterSuccess) {
  std::string graph = GraphPath();
  ASSERT_EQ(RunCli("gen --out=" + graph + " --kind=uniform --nu=20 --nv=20"
                " --edges=50")
                .exit_code,
            0);
  CommandResult failed = RunCli("enum --graph=" + graph +
                                " --model=ssfbc --count-only --format=bogus");
  EXPECT_EQ(failed.exit_code, 2) << failed.output;
  EXPECT_EQ(failed.output.find("unknown flag"), std::string::npos)
      << failed.output;

  CommandResult typo = RunCli("enum --graph=" + graph +
                              " --model=ssfbc --count-only --alpah=2");
  EXPECT_EQ(typo.exit_code, 0) << typo.output;
  EXPECT_NE(typo.output.find("unknown flag --alpah ignored"),
            std::string::npos)
      << typo.output;
  EXPECT_EQ(typo.output.find("unknown flag --model"), std::string::npos)
      << typo.output;
}

// --rand-attrs=1 re-attributes every vertex into class 0, so it must give
// the results of the same edges read as a plain edge list (whose vertices
// all default to class 0), not those of the file's own classes.
TEST(CliEndToEnd, RandAttrsOnePutsEveryVertexInOneClass) {
  const std::string graph = ::testing::TempDir() + "/fairbc_cli_one.fbg";
  const std::string edges = ::testing::TempDir() + "/fairbc_cli_one.txt";
  ASSERT_EQ(RunCli("gen --out=" + graph +
                   " --kind=affiliation --nu=300 --nv=300 --communities=15"
                   " --seed=5")
                .exit_code,
            0);
  {
    std::ifstream in(graph);
    std::ofstream out(edges);
    std::string tag;
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      VertexId u = 0;
      VertexId v = 0;
      if (fields >> tag >> u >> v && tag == "E") out << u << ' ' << v << '\n';
    }
  }
  const std::string params =
      " --model=ssfbc --alpha=2 --beta=2 --delta=1 --threads=1";
  const std::string one = ::testing::TempDir() + "/fairbc_cli_one_a.txt";
  const std::string plain = ::testing::TempDir() + "/fairbc_cli_one_b.txt";
  const std::string kept = ::testing::TempDir() + "/fairbc_cli_one_c.txt";
  ASSERT_EQ(RunCli("enum --graph=" + graph + params +
                   " --rand-attrs=1 --out=" + one)
                .exit_code,
            0);
  ASSERT_EQ(RunCli("enum --graph=" + edges + " --format=edges" + params +
                   " --out=" + plain)
                .exit_code,
            0);
  ASSERT_EQ(
      RunCli("enum --graph=" + graph + params + " --rand-attrs=0 --out=" + kept)
          .exit_code,
      0);
  const std::vector<Biclique> one_class = ReadResultFile(one);
  EXPECT_FALSE(one_class.empty());
  EXPECT_EQ(one_class, ReadResultFile(plain));
  EXPECT_NE(one_class.size(), ReadResultFile(kept).size());
}

// --- one verdict from every front door ------------------------------------

// One request field value and the verdict all three front doors must give
// it: `fairbc_cli enum`, the line protocol's BuildQueryRequest and the
// binary protocol's DecodeQueryPayload. A value a door's syntax cannot
// carry names the reason instead of a verdict there.
struct DoorRow {
  const char* field;  // the line key; the CLI flag spells '_' as '-'.
  const char* value;
  bool accepted;
  const char* no_binary = nullptr;  // why the binary door cannot carry it.
  const char* no_line = nullptr;    // why the line door cannot carry it.
};

constexpr const char* kNegative = "negative: the binary field is unsigned";
constexpr const char* kTooWide = "wider than the binary field's u32";
constexpr const char* kName = "a name: the binary field is a table index";
constexpr const char* kSyntax = "text syntax: the binary field is typed";

const DoorRow kDoorRows[] = {
    // alpha/beta/delta: integers in [0, 1e9].
    {"alpha", "0", true},
    {"alpha", "1000000000", true},
    {"alpha", "1000000001", false},
    {"alpha", "-1", false, kNegative},
    {"alpha", "4294967297", false, kTooWide},
    {"alpha", "+2", false, kSyntax},
    {"alpha", "0x10", false, kSyntax},
    {"alpha", "2.5", false, kSyntax},
    {"alpha", "abc", false, kSyntax},
    {"alpha", " 2", false, kSyntax, "the line tokenizer splits on spaces"},
    {"beta", "1000000000", true},
    {"beta", "1000000001", false},
    {"delta", "0", true},
    {"delta", "1000000001", false},
    {"delta", "-1", false, kNegative},
    // theta: a number in [0, 1].
    {"theta", "0", true},
    {"theta", "1", true},
    {"theta", "0.25", true},
    {"theta", "1e-1", true},
    {"theta", "1.5", false},
    {"theta", "-0.1", false},
    {"theta", "nan", false},
    {"theta", "inf", false},
    {"theta", "+0.25", false, kSyntax},
    {"theta", "0x1p-2", false, kSyntax},
    // budget: finite seconds >= 0.
    {"budget", "0", true},
    {"budget", "30", true},
    {"budget", "-1", false},
    {"budget", "nan", false},
    {"budget", "inf", false},
    {"budget", "soon", false, kSyntax},
    // threads: [0, kMaxThreads].
    {"threads", "0", true},
    {"threads", "1024", true},
    {"threads", "1025", false},
    {"threads", "-1", false, kNegative},
    {"threads", "+1", false, kSyntax},
    // top_k: [0, 1e9].
    {"top_k", "0", true},
    {"top_k", "1000000000", true},
    {"top_k", "1000000001", false},
    {"top_k", "-1", false, kNegative},
    // Every name of every table, and names outside them.
    {"model", "ssfbc", true},
    {"model", "bsfbc", true},
    {"model", "bogus", false, kName},
    {"model", "", false, kName},
    {"algo", "pp", true},
    {"algo", "bcem", true},
    {"algo", "naive", true},
    {"algo", "ppp", false, kName},
    {"ordering", "deg", true},
    {"ordering", "id", true},
    {"ordering", "idd", false, kName},
    {"pruning", "colorful", true},
    {"pruning", "core", true},
    {"pruning", "none", true},
    {"pruning", "colorfull", false, kName},
    {"rank", "weight", true},
    {"rank", "size", true},
    {"rank", "balance", true},
    {"rank", "heavy", false, kName},
};

// The request the binary door receives for a row it can carry.
QueryRequest BinaryRequest(const DoorRow& row) {
  QueryRequest req;
  req.graph = "g";
  const std::string field = row.field;
  const std::string value = row.value;
  auto u32 = [&] { return static_cast<std::uint32_t>(std::stoull(value)); };
  if (field == "alpha") req.params.alpha = u32();
  if (field == "beta") req.params.beta = u32();
  if (field == "delta") req.params.delta = u32();
  if (field == "theta") req.params.theta = std::stod(value);
  if (field == "budget") req.options.time_budget_seconds = std::stod(value);
  if (field == "threads") req.options.num_threads = u32();
  if (field == "top_k") req.top_k = u32();
  if (field == "model") req.model = ParseName<FairModel>(value).value();
  if (field == "algo") req.algo = ParseName<FairAlgo>(value).value();
  if (field == "ordering") {
    req.options.ordering = ParseName<VertexOrdering>(value).value();
  }
  if (field == "pruning") {
    req.options.pruning = ParseName<PruningLevel>(value).value();
  }
  if (field == "rank") req.rank = ParseName<TopKRank>(value).value();
  return req;
}

TEST(RequestDoors, EveryDoorGivesTheSameVerdict) {
  const std::string graph = GraphPath();
  ASSERT_EQ(RunCli("gen --out=" + graph + " --kind=uniform --nu=20 --nv=20"
                   " --edges=50")
                .exit_code,
            0);
  for (const DoorRow& row : kDoorRows) {
    const std::string label = std::string(row.field) + "='" + row.value + "'";
    std::string flag = row.field;
    std::replace(flag.begin(), flag.end(), '_', '-');

    CommandResult cli = RunCli("enum --graph=" + graph + " --count-only --" +
                               flag + "='" + row.value + "'");
    EXPECT_EQ(cli.exit_code, row.accepted ? 0 : 2) << label << cli.output;

    // The same message from every door, each spelling the field its own
    // way (--top-k against top_k).
    std::string line_message;
    if (row.no_line == nullptr) {
      auto line = BuildQueryRequest(ParseRequestLine(
          std::string("query graph=g ") + row.field + "=" + row.value));
      EXPECT_EQ(line.ok(), row.accepted) << label;
      if (!line.ok()) {
        line_message = line.status().message();
        std::string message = line_message;
        message.replace(message.find(row.field), flag.size(), "--" + flag);
        EXPECT_NE(cli.output.find("error: " + message), std::string::npos)
            << label << cli.output;
      }
    }

    if (row.no_binary == nullptr) {
      const std::string payload = wire::EncodeQueryPayload(BinaryRequest(row));
      auto binary = wire::DecodeQueryPayload(payload);
      EXPECT_EQ(binary.ok(), row.accepted) << label;
      if (!binary.ok()) {
        EXPECT_EQ(binary.status().message(), line_message) << label;
      }
    }
  }
}

}  // namespace
}  // namespace fairbc
