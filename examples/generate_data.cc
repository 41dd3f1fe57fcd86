// Synthetic-data generator CLI: writes an IBM-Quest-style database to a
// basket file that mine_cli (or any other tool) can consume.
//
//   ./generate_data out.basket [flags]
//
// Defaults produce the paper's T10.I4.D100K with |L|=2000, N=1000. Run with
// no arguments, or with an unknown flag, for the usage the flag table in
// main() generates.
//
// Exit status: 0 on success, 1 on a failed write, 2 on bad usage.

#include <iostream>
#include <string>

#include "data/database_io.h"
#include "data/database_stats.h"
#include "gen/quest_gen.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace pincer;

  QuestParams params;
  params.num_transactions = 100000;
  params.avg_transaction_size = 10;
  params.avg_pattern_size = 4;
  params.num_items = 1000;
  params.num_patterns = 2000;
  using enum FlagCheck;
  Flags flags("generate_data", "<out.basket>");
  flags.Number("d", &params.num_transactions, "|D|", kPositive)
      .Number("t", &params.avg_transaction_size, "mean |T|", kPositive)
      .Number("i", &params.avg_pattern_size, "mean |I|", kPositive)
      .Number("n", &params.num_items, "N, items", kPositive)
      .Number("l", &params.num_patterns, "|L|, patterns", kPositive)
      .Number("seed", &params.seed, "generator seed");
  if (argc < 2) return flags.UsageError();
  if (!flags.ParseArgv(argc, argv, 2)) return 2;
  const std::string path = argv[1];

  std::cerr << "Generating " << params.Name() << " ...\n";
  const StatusOr<TransactionDatabase> db = GenerateQuestDatabase(params);
  if (!db.ok()) {
    std::cerr << db.status() << "\n";
    return 1;
  }
  const Status written = WriteDatabaseToFile(*db, path);
  if (!written.ok()) {
    std::cerr << written << "\n";
    return 1;
  }
  std::cerr << ComputeStats(*db).ToString();
  std::cerr << "Wrote " << path << "\n";
  return 0;
}
