// Bad command lines through the real binaries: each must exit 2, the
// bad-usage status, before doing any work — nothing on stdout and no output
// file. Every case here was once accepted (or failed only later, with exit
// 1) by a hand-rolled argv loop. The binary paths are injected at configure
// time, as for mine_cli_json_test; a case whose binary is not built skips.

#include <sys/stat.h>
#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace pincer {
namespace {

#ifdef PINCER_FIG3_PATH
constexpr const char* kFig3 = PINCER_FIG3_PATH;
#else
constexpr const char* kFig3 = nullptr;
#endif
#ifdef PINCER_GENERATE_DATA_PATH
constexpr const char* kGenerate = PINCER_GENERATE_DATA_PATH;
#else
constexpr const char* kGenerate = nullptr;
#endif
#ifdef PINCER_SHARD_PATH
constexpr const char* kShard = PINCER_SHARD_PATH;
#else
constexpr const char* kShard = nullptr;
#endif
#ifdef PINCER_QUERY_PATH
constexpr const char* kQuery = PINCER_QUERY_PATH;
#else
constexpr const char* kQuery = nullptr;
#endif

struct UsageCase {
  const char* name;
  const char* const* binary;
  // Appended after the binary; {dir} expands to a per-case temp directory.
  std::string args;
};

// Names the case by its arguments, so the reported test names are the same
// in every build.
void PrintTo(const UsageCase& c, std::ostream* os) { *os << c.args; }

std::string Expand(std::string text, const std::string& dir) {
  for (size_t at; (at = text.find("{dir}")) != std::string::npos;) {
    text.replace(at, 5, dir);
  }
  return text;
}

bool Exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

class CliUsageTest : public testing::TestWithParam<UsageCase> {};

TEST_P(CliUsageTest, ExitsTwoWithoutOutput) {
  const UsageCase& c = GetParam();
  if (*c.binary == nullptr) GTEST_SKIP() << "binary not built";
  const std::string dir = testing::TempDir() + "/cli_usage_" + c.name;
  ASSERT_EQ(std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str()),
            0);
  {
    std::ofstream basket(dir + "/in.basket");
    basket << "1 2 3\n1 2\n2 3\n1 3\n";
  }
  // The timeout bounds a regression that starts the (long) run.
  const std::string command = "timeout 60 " + std::string(*c.binary) + " " +
                              Expand(c.args, dir) + " > " + dir +
                              "/stdout.txt 2> " + dir + "/stderr.txt";
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << command;
  std::ifstream err(dir + "/stderr.txt");
  std::stringstream err_text;
  err_text << err.rdbuf();
  EXPECT_EQ(WEXITSTATUS(status), 2) << command << "\n" << err_text.str();
  std::ifstream out(dir + "/stdout.txt");
  EXPECT_EQ(out.peek(), std::ifstream::traits_type::eof())
      << "wrote to stdout: " << command;
  EXPECT_FALSE(Exists(dir + "/out")) << "wrote an output: " << command;
}

const UsageCase kCases[] = {
    {"fig3_threads_garbage", &kFig3,
     "--scale=1000 --skip-apriori --threads=foo"},
    {"fig3_scale_garbage", &kFig3, "--scale=abc --skip-apriori"},
    {"fig3_scale_zero", &kFig3, "--scale=0 --skip-apriori"},
    {"fig3_budget_suffix", &kFig3,
     "--scale=1000 --skip-apriori --budget=1x"},
    {"fig3_budget_negative", &kFig3,
     "--scale=1000 --skip-apriori --budget=-5"},
    {"generate_size_suffix", &kGenerate, "{dir}/out --d=50x"},
    {"generate_size_zero", &kGenerate, "{dir}/out --d=0"},
    {"generate_double_garbage", &kGenerate, "{dir}/out --d=50 --t=abc"},
    {"generate_seed_negative", &kGenerate, "{dir}/out --d=50 --seed=-1"},
    {"shard_term_grace_negative", &kShard,
     "{dir}/in.basket --work-dir={dir}/out --term-grace-ms=-1"},
    {"shard_deadline_negative", &kShard,
     "{dir}/in.basket --work-dir={dir}/out --attempt-deadline-ms=-1"},
    {"shard_backoff_negative", &kShard,
     "{dir}/in.basket --work-dir={dir}/out --backoff-ms=-1"},
    {"shard_max_backoff_negative", &kShard,
     "{dir}/in.basket --work-dir={dir}/out --max-backoff-ms=-1"},
    {"shard_budget_negative", &kShard,
     "{dir}/in.basket --work-dir={dir}/out --budget-ms=-1"},
    {"shard_worker_binary_empty", &kShard,
     "{dir}/in.basket --work-dir={dir}/out --worker-binary="},
    {"query_budget_negative", &kQuery, "--port=1 --budget-ms=-1"},
    {"query_support_above_one", &kQuery,
     "--port=1 --database=v --min-support=5"},
    {"query_algorithm_unknown", &kQuery,
     "--port=1 --database=v --min-support=0.5 --algorithm=eclat"},
};

INSTANTIATE_TEST_SUITE_P(
    BadCommandLines, CliUsageTest, testing::ValuesIn(kCases),
    [](const testing::TestParamInfo<UsageCase>& info) {
      return std::string(info.param.name);
    });

// Seeds above 2^53 used to round through a double, so neighbours wrote
// byte-identical baskets.
TEST(CliSeedTest, SeedsAboveTwoToThe53WriteDifferentFiles) {
  if (kGenerate == nullptr) GTEST_SKIP() << "generate_data not built";
  const std::string dir = testing::TempDir() + "/cli_usage_seeds";
  ASSERT_EQ(std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str()),
            0);
  for (const char* seed : {"9007199254740992", "9007199254740993"}) {
    const std::string command = std::string(kGenerate) + " " + dir + "/" +
                                seed + ".basket --d=50 --seed=" + seed +
                                " > /dev/null 2>&1";
    ASSERT_EQ(std::system(command.c_str()), 0) << command;
  }
  const std::string cmp = "cmp -s " + dir + "/9007199254740992.basket " +
                          dir + "/9007199254740993.basket";
  const int status = std::system(cmp.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1) << "the two seeds wrote the same basket";
}

}  // namespace
}  // namespace pincer
