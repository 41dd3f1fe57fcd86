// Market-basket scenario: generate an IBM-Quest-style synthetic database
// (the kind the paper's evaluation uses), mine it with both algorithms, and
// report the comparison metrics the paper tracks — time, passes, candidates.
//
//   ./market_basket [num_transactions] [min_support_percent]
//   e.g. ./market_basket 20000 1.0

#include <iostream>

#include "data/database_stats.h"
#include "gen/quest_gen.h"
#include "mining/miner.h"
#include "util/parse_number.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  using namespace pincer;

  const StatusOr<size_t> transactions_arg =
      argc > 1 ? ParseSize(argv[1], "num_transactions") : size_t{10000};
  const StatusOr<double> support_arg =
      argc > 2 ? ParseDouble(argv[2], "min_support_percent") : 1.0;
  if (!transactions_arg.ok() || !support_arg.ok()) {
    std::cerr << "usage: market_basket [num_transactions] "
                 "[min_support_percent]\n";
    return 2;
  }
  QuestParams params;
  params.num_transactions = *transactions_arg;
  params.avg_transaction_size = 10;
  params.avg_pattern_size = 4;
  params.num_items = 500;
  params.num_patterns = 100;
  params.seed = 7;
  const double min_support = *support_arg / 100.0;

  std::cout << "Generating " << params.Name() << " ...\n";
  const StatusOr<TransactionDatabase> db = GenerateQuestDatabase(params);
  if (!db.ok()) {
    std::cerr << "generation failed: " << db.status() << "\n";
    return 1;
  }
  std::cout << ComputeStats(*db).ToString() << "\n";

  MiningOptions options;
  options.min_support = min_support;

  TablePrinter table({"algorithm", "time_ms", "passes", "candidates",
                      "maximal_itemsets", "longest"});
  MaximalSetResult reference;
  for (Algorithm algorithm : {Algorithm::kApriori, Algorithm::kPincer,
                              Algorithm::kPincerAdaptive}) {
    const MaximalSetResult result = MineMaximal(*db, options, algorithm);
    table.AddRow({std::string(AlgorithmName(algorithm)),
                  TablePrinter::FormatDouble(result.stats.elapsed_millis, 1),
                  TablePrinter::FormatInt(
                      static_cast<int64_t>(result.stats.passes)),
                  TablePrinter::FormatInt(
                      static_cast<int64_t>(result.stats.reported_candidates)),
                  TablePrinter::FormatInt(
                      static_cast<int64_t>(result.mfs.size())),
                  TablePrinter::FormatInt(
                      static_cast<int64_t>(MaxLength(result.mfs)))});
    if (algorithm == Algorithm::kApriori) {
      reference = result;
    } else if (!(result.mfs == reference.mfs)) {
      std::cerr << "ERROR: algorithms disagree on the MFS\n";
      return 1;
    }
  }
  std::cout << "min support " << min_support * 100 << "%\n";
  table.Print(std::cout);
  std::cout << "\nAll algorithms produced identical maximum frequent sets.\n";
  return 0;
}
