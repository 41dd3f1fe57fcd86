// Association-rule workflow (§2.1): mine only the maximum frequent set with
// Pincer-Search, recover the subset supports with one batch count, and
// generate confident rules — without ever materializing the full frequent
// set during mining.
//
//   ./rules_demo [min_support_percent] [min_confidence_percent]

#include <iostream>

#include "gen/quest_gen.h"
#include "mining/miner.h"
#include "rules/mfs_rule_gen.h"
#include "util/parse_number.h"

int main(int argc, char** argv) {
  using namespace pincer;

  const StatusOr<double> support_arg =
      argc > 1 ? ParseDouble(argv[1], "min_support_percent") : 2.0;
  const StatusOr<double> confidence_arg =
      argc > 2 ? ParseDouble(argv[2], "min_confidence_percent") : 80.0;
  if (!support_arg.ok() || !confidence_arg.ok()) {
    std::cerr << "usage: rules_demo [min_support_percent] "
                 "[min_confidence_percent]\n";
    return 2;
  }
  const double min_support = *support_arg / 100.0;
  const double min_confidence = *confidence_arg / 100.0;

  QuestParams params;
  params.num_transactions = 5000;
  params.avg_transaction_size = 8;
  params.num_items = 200;
  params.num_patterns = 40;
  params.avg_pattern_size = 5;
  params.seed = 11;

  const StatusOr<TransactionDatabase> db = GenerateQuestDatabase(params);
  if (!db.ok()) {
    std::cerr << "generation failed: " << db.status() << "\n";
    return 1;
  }

  MiningOptions mining;
  mining.min_support = min_support;
  const MaximalSetResult mfs = MineMaximal(*db, mining, Algorithm::kPincer);
  std::cout << "Mined " << mfs.mfs.size() << " maximal frequent itemsets in "
            << mfs.stats.passes << " passes.\n";

  RuleOptions rule_options;
  rule_options.min_confidence = min_confidence;
  const std::vector<AssociationRule> rules =
      GenerateRulesFromMfs(*db, mfs, mining, rule_options);

  std::cout << "Found " << rules.size() << " rules with support >= "
            << min_support * 100 << "% and confidence >= "
            << min_confidence * 100 << "%.\n";
  std::cout << "Top rules by confidence:\n";
  size_t shown = 0;
  for (const AssociationRule& rule : rules) {
    if (shown++ >= 15) break;
    std::cout << "  " << rule << "\n";
  }
  return 0;
}
