// Tests for the CLI flags parser (tools/flags.h).

#include <gtest/gtest.h>

#include "tools/flags.h"

namespace hattrick {
namespace tools {
namespace {

Flags Parse(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& s : storage) argv.push_back(s.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, KeyEqualsValue) {
  const Flags flags = Parse({"--mode=frontier", "--sf=10"});
  EXPECT_EQ(flags.GetString("mode", ""), "frontier");
  EXPECT_EQ(flags.GetInt("sf", 0), 10);
}

TEST(FlagsTest, KeySpaceValue) {
  const Flags flags = Parse({"--system", "tidb", "--t", "8"});
  EXPECT_EQ(flags.GetString("system", ""), "tidb");
  EXPECT_EQ(flags.GetInt("t", 0), 8);
}

TEST(FlagsTest, BareFlagIsTrue) {
  const Flags flags = Parse({"--threaded"});
  EXPECT_TRUE(flags.GetBool("threaded", false));
  EXPECT_TRUE(flags.Has("threaded"));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  const Flags flags = Parse({});
  EXPECT_EQ(flags.GetString("mode", "point"), "point");
  EXPECT_EQ(flags.GetInt("t", 4), 4);
  EXPECT_DOUBLE_EQ(flags.GetDouble("sf", 1.5), 1.5);
  EXPECT_FALSE(flags.GetBool("threaded", false));
  EXPECT_FALSE(flags.Has("mode"));
}

TEST(FlagsTest, DoubleValues) {
  const Flags flags = Parse({"--measure=2.5"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("measure", 0), 2.5);
}

TEST(FlagsTest, BoolSpellings) {
  EXPECT_TRUE(Parse({"--x=yes"}).GetBool("x", false));
  EXPECT_TRUE(Parse({"--x=1"}).GetBool("x", false));
  EXPECT_TRUE(Parse({"--x=true"}).GetBool("x", false));
  EXPECT_FALSE(Parse({"--x=no"}).GetBool("x", true));
}

TEST(FlagsTest, PositionalCollected) {
  const Flags flags = Parse({"input.csv", "--mode=sweep", "extra"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.csv");
  EXPECT_EQ(flags.positional()[1], "extra");
}

TEST(FlagsTest, BareFlagBeforeAnotherFlag) {
  const Flags flags = Parse({"--verbose", "--sf=2"});
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetInt("sf", 0), 2);
}

TEST(FlagsTest, StrictNumberParsing) {
  int i = 0;
  EXPECT_TRUE(ParseIntFlag("42", &i));
  EXPECT_EQ(i, 42);
  EXPECT_TRUE(ParseIntFlag("-7", &i));
  EXPECT_EQ(i, -7);
  for (const char* bad : {"", "abc", "12abc", "1.5", " 3", "3 ",
                          "99999999999999999999"}) {
    EXPECT_FALSE(ParseIntFlag(bad, &i)) << "'" << bad << "'";
  }
  double d = 0;
  EXPECT_TRUE(ParseDoubleFlag("2.5", &d));
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_TRUE(ParseDoubleFlag("1e2", &d));
  EXPECT_DOUBLE_EQ(d, 100);
  for (const char* bad : {"", "abc", "1.5x", "nan", "inf", "1e999"}) {
    EXPECT_FALSE(ParseDoubleFlag(bad, &d)) << "'" << bad << "'";
  }
  bool b = false;
  EXPECT_TRUE(ParseBoolFlag("no", &b));
  EXPECT_FALSE(b);
  EXPECT_FALSE(ParseBoolFlag("maybe", &b));
}

TEST(FlagsTest, UnparsableValuesFallBackInGetters) {
  const Flags flags = Parse({"--sf=abc", "--t=4x", "--threaded=maybe"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("sf", 1.0), 1.0);
  EXPECT_EQ(flags.GetInt("t", 4), 4);
  EXPECT_TRUE(flags.GetBool("threaded", true));
}

const std::vector<FlagSpec> kTestFlags = {{"mode", FlagKind::kString},
                                          {"sf", FlagKind::kDouble},
                                          {"t", FlagKind::kInt},
                                          {"threaded", FlagKind::kBool}};

TEST(FlagsTest, ValidateAcceptsDeclaredWellFormedFlags) {
  EXPECT_EQ(Parse({"query", "--mode=point", "--sf=0.5", "--t", "8",
                   "--threaded"})
                .Validate(kTestFlags),
            "");
  EXPECT_EQ(Parse({}).Validate(kTestFlags), "");
}

TEST(FlagsTest, ValidateRejectsUnknownFlags) {
  EXPECT_EQ(Parse({"--bogus=1", "--sf=2"}).Validate(kTestFlags),
            "unknown flag --bogus");
  // A misspelling is unknown too, not ignored.
  EXPECT_EQ(Parse({"--treaded"}).Validate(kTestFlags),
            "unknown flag --treaded");
}

TEST(FlagsTest, ValidateRejectsUnparsableValues) {
  EXPECT_EQ(Parse({"--sf=abc"}).Validate(kTestFlags),
            "--sf: 'abc' is not a number");
  EXPECT_EQ(Parse({"--t=2.5"}).Validate(kTestFlags),
            "--t: '2.5' is not an integer");
  EXPECT_EQ(Parse({"--threaded=maybe"}).Validate(kTestFlags),
            "--threaded: 'maybe' is not a boolean");
}

TEST(FlagsTest, ValidateRejectsIntegersOutsideTheirRange) {
  // A ranged knob is never clamped or swapped for its default: 0 shards,
  // 65 shards and a zero-row batch are errors.
  const std::vector<FlagSpec> ranged = {{"shards", FlagKind::kInt, 1, 64},
                                        {"batch-size", FlagKind::kInt, 1}};
  EXPECT_EQ(Parse({"--shards=0"}).Validate(ranged),
            "--shards: 0 is out of range [1, 64]");
  EXPECT_EQ(Parse({"--shards=65"}).Validate(ranged),
            "--shards: 65 is out of range [1, 64]");
  EXPECT_EQ(Parse({"--batch-size=0"}).Validate(ranged),
            "--batch-size: 0 is out of range [1, 2147483647]");
  EXPECT_EQ(Parse({"--batch-size=-5"}).Validate(ranged),
            "--batch-size: -5 is out of range [1, 2147483647]");
  EXPECT_EQ(Parse({"--shards=1", "--batch-size=1"}).Validate(ranged), "");
  EXPECT_EQ(Parse({"--shards=64", "--batch-size=4096"}).Validate(ranged), "");
  // Without a declared range every integer is accepted.
  EXPECT_EQ(Parse({"--t=-3"}).Validate(kTestFlags), "");
}

}  // namespace
}  // namespace tools
}  // namespace hattrick
