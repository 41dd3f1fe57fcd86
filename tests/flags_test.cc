// Tests for the typed flag table (util/flags.h): every value kind accepts a
// well-formed token and rejects the ones the hand-rolled parsers used to
// forgive, and the generated usage names every registered flag.

#include "util/flags.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

namespace pincer {
namespace {

enum class Color { kRed, kGreen };

std::string_view ColorName(Color color) {
  return color == Color::kRed ? "red" : "green";
}

StatusOr<Color> ParseColor(std::string_view name) {
  if (name == "red") return Color::kRed;
  if (name == "green") return Color::kGreen;
  return Status::InvalidArgument("unknown color: " + std::string(name));
}

constexpr Color kAllColors[] = {Color::kRed, Color::kGreen};

// One table holding every value kind.
struct Table {
  double ratio = 0.5;
  std::optional<double> budget;
  size_t count = 1;
  std::optional<size_t> port;
  uint64_t seed = 7;
  std::string path = "in.txt";
  bool verbose = false;
  Color color = Color::kRed;
  std::vector<std::string> tags;
  Flags flags{"prog", "<input>"};

  Table() {
    flags.Number("ratio", &ratio, "a fraction", FlagCheck::kSupportFraction)
        .Number("budget-ms", &budget, "a budget", FlagCheck::kNonNegativeMs)
        .Number("count", &count, "a count", FlagCheck::kPositive)
        .Number("port", &port, "a port", FlagCheck::kPort)
        .Number("seed", &seed, "a seed")
        .String("path", "FILE", &path, "a path", FlagCheck::kNonEmptyPath)
        .Bool("verbose", &verbose, "be loud")
        .Enum("color", &color, ParseColor, ColorName, kAllColors, "a color")
        .Custom("tag", "T", "repeatable", [this](std::string_view text) {
          tags.emplace_back(text);
          return Status::OK();
        });
  }

  Status Parse(std::vector<std::string> args) { return flags.Parse(args); }
};

TEST(Flags, EveryKindAcceptsAWellFormedToken) {
  Table t;
  ASSERT_TRUE(t.Parse({"--ratio=1", "--budget-ms=0", "--count=3", "--port=0",
                       "--seed=18446744073709551615", "--path=out.json",
                       "--verbose", "--color=green", "--tag=a", "--tag=b"})
                  .ok());
  EXPECT_EQ(t.ratio, 1.0);
  EXPECT_EQ(t.budget, 0.0);
  EXPECT_EQ(t.count, 3u);
  EXPECT_EQ(t.port, 0u);
  EXPECT_EQ(t.seed, 18446744073709551615u);
  EXPECT_EQ(t.path, "out.json");
  EXPECT_TRUE(t.verbose);
  EXPECT_EQ(t.color, Color::kGreen);
  EXPECT_EQ(t.tags, (std::vector<std::string>{"a", "b"}));
}

TEST(Flags, AbsentFlagsKeepTheirDefaults) {
  Table t;
  ASSERT_TRUE(t.Parse({}).ok());
  EXPECT_EQ(t.ratio, 0.5);
  EXPECT_FALSE(t.budget.has_value());
  EXPECT_FALSE(t.port.has_value());
  EXPECT_EQ(t.path, "in.txt");
  EXPECT_FALSE(t.verbose);
}

TEST(Flags, TheLastOfARepeatedFlagWins) {
  Table t;
  ASSERT_TRUE(t.Parse({"--count=2", "--count=5"}).ok());
  EXPECT_EQ(t.count, 5u);
}

TEST(Flags, SeedsAboveTwoToThe53StayDistinct) {
  Table a;
  Table b;
  ASSERT_TRUE(a.Parse({"--seed=9007199254740993"}).ok());
  ASSERT_TRUE(b.Parse({"--seed=9007199254740992"}).ok());
  EXPECT_NE(a.seed, b.seed);
}

TEST(Flags, RejectsMalformedValuesOfEveryKind) {
  for (const char* bad : {
           // empty
           "--ratio=", "--budget-ms=", "--count=", "--port=", "--seed=",
           "--path=", "--color=",
           // garbage
           "--ratio=abc", "--budget-ms=x", "--count=foo", "--port=p",
           "--seed=s", "--color=blue",
           // out of range, including each named check
           "--ratio=0", "--ratio=1.5", "--budget-ms=-1", "--count=0",
           "--count=-1", "--port=65536", "--seed=18446744073709551616",
           "--ratio=1e999",
           // trailing suffix
           "--ratio=0.5x", "--budget-ms=1x", "--count=50x", "--port=80 ",
           "--seed=7.0",
           // a value on a bare bool, a bare valued flag
           "--verbose=1", "--verbose=", "--count", "--tag",
           // unknown flags
           "--bogus", "--bogus=1", "--", "--verbos", "--Count=1"}) {
    Table t;
    EXPECT_FALSE(t.Parse({bad}).ok()) << bad;
  }
}

TEST(Flags, ARejectedValueIsNamedAndLeavesTheFieldUnchanged) {
  Table t;
  const Status status = t.Parse({"--budget-ms=-1"});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("--budget-ms needs a number >= 0"),
            std::string::npos)
      << status;
  EXPECT_FALSE(t.budget.has_value());
}

TEST(Flags, PositionalsOnlyWhereTheCallerTakesThem) {
  Table t;
  EXPECT_FALSE(t.Parse({"input.basket"}).ok());
  std::vector<std::string> positionals;
  ASSERT_TRUE(t.flags.Parse({"a", "--verbose", "b"}, &positionals).ok());
  EXPECT_EQ(positionals, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(t.verbose);
}

TEST(Flags, UsageNamesEveryRegisteredFlag) {
  Table t;
  const std::string usage = t.flags.Usage();
  EXPECT_EQ(usage.rfind("usage: prog <input> [flags]\n", 0), 0u) << usage;
  for (const char* flag :
       {"--ratio=F", "--budget-ms=MS", "--count=N", "--port=N", "--seed=N",
        "--path=FILE", "--verbose ", "--color=red|green", "--tag=T"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag << "\n" << usage;
  }
  // Defaults come from the bound fields at registration.
  EXPECT_NE(usage.find("(default 0.5)"), std::string::npos) << usage;
  EXPECT_NE(usage.find("(default red)"), std::string::npos) << usage;
  EXPECT_NE(usage.find("(default in.txt)"), std::string::npos) << usage;
  for (size_t start = 0, end; start < usage.size(); start = end + 1) {
    end = usage.find('\n', start);
    EXPECT_LE(end - start, 80u) << usage.substr(start, end - start);
  }
}

}  // namespace
}  // namespace pincer
