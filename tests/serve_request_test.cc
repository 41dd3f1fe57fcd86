// Tests for the daemon's strict request parser. A long-lived service must
// reject a typo loudly rather than mine with a silently-defaulted option,
// so most of these tests are about what fails to parse.

#include <gtest/gtest.h>

#include <string>

#include "serve/request.h"

namespace pincer {
namespace {

TEST(ParseRequest, PingNeedsOnlyTheOp) {
  const StatusOr<Request> request = ParseRequest(R"({"op":"ping"})");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->op, Request::Op::kPing);
  EXPECT_TRUE(request->id.empty());
}

TEST(ParseRequest, AllOpsParse) {
  EXPECT_EQ(ParseRequest(R"({"op":"ping"})")->op, Request::Op::kPing);
  EXPECT_EQ(ParseRequest(R"({"op":"list"})")->op, Request::Op::kList);
  EXPECT_EQ(ParseRequest(R"({"op":"shutdown"})")->op, Request::Op::kShutdown);
  EXPECT_EQ(
      ParseRequest(R"({"op":"mine","database":"d","min_support":0.5})")->op,
      Request::Op::kMine);
}

TEST(ParseRequest, OpNamesRoundTrip) {
  EXPECT_EQ(RequestOpName(Request::Op::kPing), "ping");
  EXPECT_EQ(RequestOpName(Request::Op::kList), "list");
  EXPECT_EQ(RequestOpName(Request::Op::kMine), "mine");
  EXPECT_EQ(RequestOpName(Request::Op::kShutdown), "shutdown");
}

TEST(ParseRequest, IdIsEchoedThrough) {
  const StatusOr<Request> request =
      ParseRequest(R"({"op":"ping","id":"req-7"})");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->id, "req-7");
  // And it must be a JSON string, not a bare number.
  EXPECT_FALSE(ParseRequest(R"({"op":"ping","id":7})").ok());
}

TEST(ParseRequest, MineDefaultsMatchTheCli) {
  const StatusOr<Request> request =
      ParseRequest(R"({"op":"mine","database":"quest","min_support":0.25})");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->database, "quest");
  EXPECT_DOUBLE_EQ(request->options.min_support, 0.25);
  EXPECT_EQ(request->algorithm, Algorithm::kPincerAdaptive);
  EXPECT_TRUE(request->options.use_array_fast_path);
  EXPECT_EQ(request->options.max_passes, 0u);
  EXPECT_EQ(request->options.mfcs_cardinality_limit, 0u);
  EXPECT_EQ(request->options.mfcs_work_limit, 0u);
  EXPECT_DOUBLE_EQ(request->options.time_budget_ms, 0.0);
  EXPECT_FALSE(request->no_cache);
}

TEST(ParseRequest, MineWithEveryField) {
  const StatusOr<Request> request = ParseRequest(
      R"({"op":"mine","id":"q1","database":"db","min_support":0.1,)"
      R"("algorithm":"apriori-combined","use_array_fast_path":false,)"
      R"("max_passes":5,"mfcs_cardinality_limit":100,)"
      R"("mfcs_work_limit":50000,"budget_ms":250.5,"no_cache":true})");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->id, "q1");
  EXPECT_EQ(request->algorithm, Algorithm::kAprioriCombined);
  EXPECT_FALSE(request->options.use_array_fast_path);
  EXPECT_EQ(request->options.max_passes, 5u);
  EXPECT_EQ(request->options.mfcs_cardinality_limit, 100u);
  EXPECT_EQ(request->options.mfcs_work_limit, 50000u);
  EXPECT_DOUBLE_EQ(request->options.time_budget_ms, 250.5);
  EXPECT_TRUE(request->no_cache);
}

TEST(ParseRequest, RejectsNonObjectDocuments) {
  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("not json").ok());
  EXPECT_FALSE(ParseRequest(R"(["op","ping"])").ok());
  EXPECT_FALSE(ParseRequest("42").ok());
  EXPECT_FALSE(ParseRequest(R"({"op":"ping")").ok());  // truncated
}

TEST(ParseRequest, RejectsMissingOrUnknownOp) {
  EXPECT_FALSE(ParseRequest("{}").ok());
  EXPECT_FALSE(ParseRequest(R"({"id":"x"})").ok());
  EXPECT_FALSE(ParseRequest(R"({"op":"mien"})").ok());
  EXPECT_FALSE(ParseRequest(R"({"op":3})").ok());
}

TEST(ParseRequest, RejectsUnknownKeysNamingThem) {
  // The motivating bug class: a typo'd key must not silently default.
  const StatusOr<Request> request = ParseRequest(
      R"({"op":"mine","database":"d","min_suport":0.01})");
  ASSERT_FALSE(request.ok());
  EXPECT_NE(request.status().message().find("min_suport"), std::string::npos)
      << request.status().message();
}

TEST(ParseRequest, RejectsWrongTypes) {
  EXPECT_FALSE(
      ParseRequest(R"({"op":"mine","database":7,"min_support":0.5})").ok());
  EXPECT_FALSE(
      ParseRequest(R"({"op":"mine","database":"d","min_support":"0.5"})")
          .ok());
  EXPECT_FALSE(ParseRequest(R"({"op":"ping","no_cache":1})").ok());
  EXPECT_FALSE(ParseRequest(R"({"op":"ping","use_array_fast_path":"yes"})")
                   .ok());
}

TEST(ParseRequest, MineRequiresDatabaseAndMinSupport) {
  EXPECT_FALSE(ParseRequest(R"({"op":"mine","min_support":0.5})").ok());
  EXPECT_FALSE(ParseRequest(R"({"op":"mine","database":"d"})").ok());
  EXPECT_FALSE(
      ParseRequest(R"({"op":"mine","database":"","min_support":0.5})").ok());
}

TEST(ParseRequest, MinSupportMustBeInUnitInterval) {
  EXPECT_FALSE(
      ParseRequest(R"({"op":"mine","database":"d","min_support":0})").ok());
  EXPECT_FALSE(
      ParseRequest(R"({"op":"mine","database":"d","min_support":-0.1})").ok());
  EXPECT_FALSE(
      ParseRequest(R"({"op":"mine","database":"d","min_support":1.5})").ok());
  EXPECT_TRUE(
      ParseRequest(R"({"op":"mine","database":"d","min_support":1})").ok());
}

TEST(ParseRequest, BudgetMustBeNonNegative) {
  EXPECT_FALSE(ParseRequest(
                   R"({"op":"mine","database":"d","min_support":0.5,)"
                   R"("budget_ms":-1})")
                   .ok());
  EXPECT_TRUE(ParseRequest(
                  R"({"op":"mine","database":"d","min_support":0.5,)"
                  R"("budget_ms":0})")
                  .ok());
}

TEST(ParseRequest, IntegerFieldsRejectNonIntegerNumberTokens) {
  // JSON happily carries -1, 1.5, and 1e2 as numbers; the raw tokens must
  // still fail the same ParseSize check the CLI flags use.
  for (const char* token : {"-1", "1.5", "1e2", "18446744073709551616"}) {
    const std::string line =
        std::string(R"({"op":"mine","database":"d","min_support":0.5,)") +
        R"("max_passes":)" + token + "}";
    EXPECT_FALSE(ParseRequest(line).ok()) << line;
  }
}

TEST(ParseRequest, DoubleFieldsRejectOverflowTokens) {
  // 1e999 is syntactically valid JSON; ParseDouble must refuse to pass
  // infinity into the mining options.
  EXPECT_FALSE(ParseRequest(
                   R"({"op":"mine","database":"d","min_support":0.5,)"
                   R"("budget_ms":1e999})")
                   .ok());
}

TEST(ParseRequest, RejectsUnknownAlgorithm) {
  EXPECT_FALSE(ParseRequest(
                   R"({"op":"mine","database":"d","min_support":0.5,)"
                   R"("algorithm":"fpgrowth"})")
                   .ok());
  EXPECT_EQ(ParseRequest(
                R"({"op":"mine","database":"d","min_support":0.5,)"
                R"("algorithm":"pincer"})")
                ->algorithm,
            Algorithm::kPincer);
}

TEST(ParseRequest, NonMineOpsIgnoreMineRequirementsButStayStrict) {
  // list/ping/shutdown do not need database or min_support...
  EXPECT_TRUE(ParseRequest(R"({"op":"list"})").ok());
  // ...but fields they do carry are still type-checked and range-checked.
  EXPECT_FALSE(ParseRequest(R"({"op":"list","min_support":"x"})").ok());
}

}  // namespace
}  // namespace pincer
