#include <gtest/gtest.h>

#include <cmath>

#include "common/flags.h"

namespace fairbc {
namespace {

FlagParser Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  FlagParser parser;
  EXPECT_TRUE(parser.Parse(static_cast<int>(args.size()), args.data()).ok());
  return parser;
}

TEST(Flags, EqualsSyntax) {
  FlagParser p = Parse({"--alpha=3", "--theta=0.4", "--name=imdb"});
  EXPECT_EQ(p.GetInt("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(p.GetDouble("theta", 0.0), 0.4);
  EXPECT_EQ(p.GetString("name", ""), "imdb");
}

TEST(Flags, SpaceSyntax) {
  FlagParser p = Parse({"--alpha", "5", "--name", "wiki"});
  EXPECT_EQ(p.GetInt("alpha", 0), 5);
  EXPECT_EQ(p.GetString("name", ""), "wiki");
}

TEST(Flags, BareFlagIsTrue) {
  FlagParser p = Parse({"--verbose", "--count-only"});
  EXPECT_TRUE(p.GetBool("verbose", false));
  EXPECT_TRUE(p.GetBool("count-only", false));
  EXPECT_FALSE(p.GetBool("missing", false));
}

TEST(Flags, BoolSpellings) {
  FlagParser p = Parse({"--a=true", "--b=1", "--c=yes", "--d=false", "--e=0"});
  EXPECT_TRUE(p.GetBool("a", false));
  EXPECT_TRUE(p.GetBool("b", false));
  EXPECT_TRUE(p.GetBool("c", false));
  EXPECT_FALSE(p.GetBool("d", true));
  EXPECT_FALSE(p.GetBool("e", true));
}

TEST(Flags, Positionals) {
  FlagParser p = Parse({"enum", "--alpha=1", "input.txt"});
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "enum");
  EXPECT_EQ(p.positional()[1], "input.txt");
}

TEST(Flags, DefaultsOnMissingAndMalformed) {
  FlagParser p = Parse({"--alpha=notanumber", "--theta=xyz"});
  EXPECT_EQ(p.GetInt("alpha", 7), 7);
  EXPECT_DOUBLE_EQ(p.GetDouble("theta", 0.25), 0.25);
  EXPECT_EQ(p.GetInt("absent", -1), -1);
}

TEST(Flags, UnparsableTypedValuesAreRecorded) {
  FlagParser p = Parse({"--alpha=abc", "--theta=0.x", "--threads=3x",
                        "--beta=2", "--name=imdb"});
  // Getters still fall back to the default...
  EXPECT_EQ(p.GetInt("alpha", 1), 1);
  EXPECT_DOUBLE_EQ(p.GetDouble("theta", 0.0), 0.0);
  EXPECT_EQ(p.GetInt("beta", 0), 2);
  EXPECT_EQ(p.GetString("name", ""), "imdb");
  // ...but the parser remembers which flags did not parse, so a tool can
  // refuse them. Unread flags are not judged.
  EXPECT_EQ(p.BadFlags(), (std::vector<std::string>{"alpha", "theta"}));
  EXPECT_EQ(p.GetInt("threads", 1), 1);
  EXPECT_EQ(p.BadFlags(),
            (std::vector<std::string>{"alpha", "theta", "threads"}));
  // Strings and booleans never fail to parse.
  FlagParser q = Parse({"--name=12x", "--verbose=maybe"});
  EXPECT_EQ(q.GetString("name", ""), "12x");
  EXPECT_FALSE(q.GetBool("verbose", false));
  EXPECT_TRUE(q.BadFlags().empty());
}

// The one number grammar of the text doors: std::from_chars over the whole
// value. A leading '+' or space, hex and trailing bytes all refuse, like a
// value out of the type's range.
TEST(Flags, StrictNumberGrammar) {
  EXPECT_EQ(ParseNumber<std::int64_t>("-12"), -12);
  EXPECT_EQ(ParseNumber<std::int64_t>("007"), 7);
  for (const char* text : {"+2", " 2", "2 ", "0x10", "2.5", "1e3", "",
                           "9223372036854775808"}) {
    EXPECT_FALSE(ParseNumber<std::int64_t>(text).has_value()) << text;
  }
  EXPECT_EQ(ParseNumber<double>("0.25"), 0.25);
  EXPECT_EQ(ParseNumber<double>("1e-1"), 0.1);
  EXPECT_EQ(ParseNumber<double>(".5"), 0.5);
  EXPECT_TRUE(std::isnan(*ParseNumber<double>("nan")));
  EXPECT_TRUE(std::isinf(*ParseNumber<double>("inf")));
  for (const char* text : {"+0.25", " 1", "0x1p-2", "1e999", "0.5x", ""}) {
    EXPECT_FALSE(ParseNumber<double>(text).has_value()) << text;
  }
  FlagParser p = Parse({"--alpha=+2", "--theta=0x1p-2", "--seed=-3"});
  EXPECT_EQ(p.GetInt("alpha", 1), 1);
  EXPECT_DOUBLE_EQ(p.GetDouble("theta", 0.0), 0.0);
  EXPECT_EQ(p.GetInt("seed", 0), -3);
  EXPECT_EQ(p.BadFlags(), (std::vector<std::string>{"alpha", "theta"}));
  EXPECT_EQ(UnparsableValue("--alpha", "+2").message(),
            "--alpha has an unparsable value \"+2\"");
}

TEST(Flags, NegativeIntegers) {
  FlagParser p = Parse({"--offset=-12"});
  EXPECT_EQ(p.GetInt("offset", 0), -12);
}

TEST(Flags, HasAndUnused) {
  FlagParser p = Parse({"--used=1", "--typo=2"});
  EXPECT_TRUE(p.Has("used"));
  auto unused = p.UnusedFlags();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Flags, RejectsBareDoubleDash) {
  const char* argv[] = {"prog", "--"};
  FlagParser parser;
  EXPECT_FALSE(parser.Parse(2, argv).ok());
}

TEST(Flags, RejectsEmptyName) {
  const char* argv[] = {"prog", "--=value"};
  FlagParser parser;
  EXPECT_FALSE(parser.Parse(2, argv).ok());
}

TEST(Flags, LastValueWins) {
  FlagParser p = Parse({"--alpha=1", "--alpha=2"});
  EXPECT_EQ(p.GetInt("alpha", 0), 2);
}

}  // namespace
}  // namespace fairbc
