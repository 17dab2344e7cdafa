// End-to-end tests of the fairbc_cli binary (gen -> stats -> enum ->
// verify round trip through real process invocations). The binary path
// is injected by CMake as FAIRBC_CLI_PATH.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace fairbc {
namespace {

#ifndef FAIRBC_CLI_PATH
#define FAIRBC_CLI_PATH "fairbc_cli"
#endif

struct CommandResult {
  int exit_code;
  std::string output;
};

CommandResult RunCli(const std::string& args) {
  std::string out_path = ::testing::TempDir() + "/fairbc_cli_out.txt";
  std::string cmd =
      std::string(FAIRBC_CLI_PATH) + " " + args + " > " + out_path + " 2>&1";
  int rc = std::system(cmd.c_str());
  std::ifstream in(out_path);
  std::stringstream ss;
  ss << in.rdbuf();
  return {WEXITSTATUS(rc), ss.str()};
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
}

// A budget outside the window both server front doors accept (finite and
// >= 0) is a usage error; it used to run with no budget at all. So are
// an out-of-range --top-k or --chunk, which used to exit 1.
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
  };
  for (const auto& [flag, message] : cases) {
    CommandResult r = RunCli("enum --graph=" + graph + " --model=ssfbc " +
                             std::string(flag) + " --output=json");
    EXPECT_EQ(r.exit_code, 2) << flag << ": " << r.output;
    EXPECT_NE(r.output.find(message), std::string::npos) << r.output;
  }
  // The window's edges run.
  for (const std::string flag : {"--budget=0", "--budget=30", "--top-k=0"}) {
    CommandResult r =
        RunCli("enum --graph=" + graph + " --model=ssfbc --count-only " + flag);
    EXPECT_EQ(r.exit_code, 0) << flag << ": " << r.output;
  }
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

}  // namespace
}  // namespace fairbc
