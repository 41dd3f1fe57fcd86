// Checks that MiningStats::ToJson reports exactly the numbers the text
// report (ToString) and the in-memory struct hold, on a real mined database,
// and that the opt-in counter metrics populate only when requested.

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "gen/quest_gen.h"
#include "mining/miner.h"
#include "mining/mining_stats.h"
#include "tests/test_json_parser.h"

namespace pincer {
namespace {

using test::JsonValue;
using test::ParseJson;

TransactionDatabase MakeDatabase() {
  QuestParams params;
  params.num_transactions = 500;
  params.num_items = 60;
  params.num_patterns = 8;
  params.avg_transaction_size = 8;
  params.avg_pattern_size = 4;
  params.seed = 42;
  StatusOr<TransactionDatabase> db = GenerateQuestDatabase(params);
  EXPECT_TRUE(db.ok());
  return std::move(db).value();
}

// Extracts the unsigned integer following `prefix` in the ToString report.
uint64_t TextTotal(const std::string& report, const std::string& prefix) {
  const size_t at = report.find(prefix);
  EXPECT_NE(at, std::string::npos) << "missing '" << prefix << "' in:\n"
                                   << report;
  if (at == std::string::npos) return ~uint64_t{0};
  const char* digits = report.c_str() + at + prefix.size();
  char* end = nullptr;
  const uint64_t value = std::strtoull(digits, &end, 10);
  EXPECT_NE(end, digits) << "no number after '" << prefix << "'";
  return value;
}

uint64_t JsonUint(const JsonValue& doc, const std::string& key) {
  const JsonValue* value = doc.Find(key);
  EXPECT_NE(value, nullptr) << "missing key " << key;
  if (value == nullptr) return ~uint64_t{0};
  return static_cast<uint64_t>(value->number);
}

class StatsJsonTest : public testing::TestWithParam<Algorithm> {};

TEST_P(StatsJsonTest, JsonMatchesStructAndText) {
  const TransactionDatabase db = MakeDatabase();
  MiningOptions options;
  options.min_support = 0.02;
  options.collect_counter_metrics = true;
  const MaximalSetResult result = MineMaximal(db, options, GetParam());
  const MiningStats& stats = result.stats;

  const std::string json_text = stats.ToJsonString();
  const auto doc = ParseJson(json_text);
  ASSERT_TRUE(doc.has_value()) << json_text;

  // JSON vs the struct.
  EXPECT_EQ(JsonUint(*doc, "passes"), stats.passes);
  EXPECT_EQ(JsonUint(*doc, "reported_candidates"), stats.reported_candidates);
  EXPECT_EQ(JsonUint(*doc, "total_candidates"), stats.total_candidates);
  EXPECT_EQ(JsonUint(*doc, "mfcs_candidates"), stats.mfcs_candidates);
  EXPECT_EQ(doc->Find("aborted")->boolean, stats.aborted);
  EXPECT_EQ(doc->Find("mfcs_disabled")->boolean, stats.mfcs_disabled);
  EXPECT_DOUBLE_EQ(doc->Find("elapsed_ms")->number, stats.elapsed_millis);

  // JSON vs the human-readable report: same source numbers, so the totals
  // must agree exactly.
  const std::string report = stats.ToString();
  EXPECT_EQ(JsonUint(*doc, "passes"), TextTotal(report, "passes: "));
  EXPECT_EQ(JsonUint(*doc, "reported_candidates"),
            TextTotal(report, "reported candidates (>= pass 3, incl. MFCS): "));
  EXPECT_EQ(JsonUint(*doc, "total_candidates"),
            TextTotal(report, "total candidates (all passes): "));
  EXPECT_EQ(JsonUint(*doc, "mfcs_candidates"),
            TextTotal(report, "MFCS candidates: "));

  // Per-pass rows mirror the struct one-to-one.
  const JsonValue* per_pass = doc->Find("per_pass");
  ASSERT_NE(per_pass, nullptr);
  ASSERT_EQ(per_pass->array.size(), stats.per_pass.size());
  uint64_t json_candidate_total = 0;
  for (size_t i = 0; i < stats.per_pass.size(); ++i) {
    const JsonValue& row = per_pass->array[i];
    const PassStats& pass = stats.per_pass[i];
    EXPECT_EQ(JsonUint(row, "pass"), pass.pass);
    EXPECT_EQ(JsonUint(row, "candidates"), pass.num_candidates);
    EXPECT_EQ(JsonUint(row, "mfcs_candidates"), pass.num_mfcs_candidates);
    EXPECT_EQ(JsonUint(row, "frequent"), pass.num_frequent);
    EXPECT_EQ(JsonUint(row, "mfs_found"), pass.num_mfs_found);
    EXPECT_EQ(JsonUint(row, "mfcs_size_after"), pass.mfcs_size_after);
    EXPECT_GE(row.Find("candidate_gen_ms")->number, 0.0);
    EXPECT_GE(row.Find("counting_ms")->number, 0.0);
    EXPECT_GE(row.Find("mfcs_update_ms")->number, 0.0);
    EXPECT_GE(row.Find("mfcs_index_ms")->number, 0.0);
    ASSERT_NE(row.Find("backend_used"), nullptr);
    EXPECT_EQ(row.Find("backend_used")->string, pass.backend_used);
    // total_candidates counts both the bottom-up candidates and the MFCS
    // elements counted top-down in the same pass (the paper's §4.1.1
    // accounting), so the per-pass rows add up across both columns.
    json_candidate_total +=
        JsonUint(row, "candidates") + JsonUint(row, "mfcs_candidates");
  }
  EXPECT_EQ(json_candidate_total, stats.total_candidates);

  // Counter metrics were requested, so the backend recorded its work.
  const JsonValue* counting = doc->Find("counting");
  ASSERT_NE(counting, nullptr);
  EXPECT_EQ(JsonUint(*counting, "count_calls"), stats.counting.count_calls);
  EXPECT_GT(stats.counting.count_calls, 0u);
  EXPECT_GT(stats.counting.candidates_counted, 0u);
}

TEST_P(StatsJsonTest, MetricsStayZeroWhenDisabled) {
  const TransactionDatabase db = MakeDatabase();
  MiningOptions options;
  options.min_support = 0.02;
  ASSERT_FALSE(options.collect_counter_metrics);  // default off
  const MaximalSetResult result = MineMaximal(db, options, GetParam());
  EXPECT_EQ(result.stats.counting.count_calls, 0u);
  EXPECT_EQ(result.stats.counting.candidates_counted, 0u);
  EXPECT_EQ(result.stats.counting.transactions_scanned, 0u);
  EXPECT_EQ(result.stats.counting.structure_nodes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, StatsJsonTest,
                         testing::Values(Algorithm::kApriori,
                                         Algorithm::kPincer,
                                         Algorithm::kPincerAdaptive),
                         [](const auto& info) {
                           switch (info.param) {
                             case Algorithm::kApriori: return "Apriori";
                             case Algorithm::kPincer: return "Pincer";
                             default: return "PincerAdaptive";
                           }
                         });

// The pass-1/2 fast paths bypass the generic counter, so phase timing must
// still land in counting_ms there (the backend hook only sees passes >= 3).
TEST(StatsJsonTest, PhaseTimesSumBelowElapsed) {
  const TransactionDatabase db = MakeDatabase();
  MiningOptions options;
  options.min_support = 0.02;
  const MaximalSetResult result =
      MineMaximal(db, options, Algorithm::kPincerAdaptive);
  double phase_sum = 0.0;
  for (const PassStats& pass : result.stats.per_pass) {
    phase_sum += pass.candidate_gen_ms + pass.counting_ms +
                 pass.mfcs_update_ms + pass.mfcs_index_ms;
  }
  EXPECT_GT(phase_sum, 0.0);
  // The phases are disjoint slices of the run, so their sum cannot exceed
  // the wall-clock total (allow a little float slack).
  EXPECT_LE(phase_sum, result.stats.elapsed_millis * 1.01 + 0.1);
}

}  // namespace
}  // namespace pincer
