// The paper's concluding-remarks scenario (§6): discovering co-movement
// patterns in stock prices. Prices of individual stocks are strongly
// correlated (the market moves together), so "transactions" — the set of
// stocks that went up on a given day — contain long frequent itemsets, the
// regime where bottom-up algorithms collapse and Pincer-Search shines.
//
//   ./stock_market [num_days]

#include <iostream>
#include <string>
#include <vector>

#include "mining/miner.h"
#include "util/parse_number.h"
#include "util/prng.h"
#include "util/table_printer.h"

namespace {

// Simulates daily up-moves for `num_stocks` stocks over `num_days` days.
// Stocks belong to sectors; each day has a market factor and per-sector
// factors, so same-sector stocks rise together — producing long maximal
// frequent itemsets per sector.
pincer::TransactionDatabase SimulateMarket(size_t num_stocks, size_t num_days,
                                           size_t num_sectors,
                                           uint64_t seed) {
  pincer::Prng prng(seed);
  pincer::TransactionDatabase db(num_stocks);
  for (size_t day = 0; day < num_days; ++day) {
    const double market = prng.Normal(0.0, 1.0);
    std::vector<double> sector_factor(num_sectors);
    for (double& factor : sector_factor) factor = prng.Normal(0.0, 1.0);

    pincer::Transaction ups;
    for (pincer::ItemId stock = 0; stock < num_stocks; ++stock) {
      const size_t sector = stock % num_sectors;
      const double move = 0.6 * market + 2.0 * sector_factor[sector] +
                          0.4 * prng.Normal(0.0, 1.0);
      if (move > 0.0) ups.push_back(stock);
    }
    db.AddTransaction(std::move(ups));
  }
  return db;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pincer;

  const StatusOr<size_t> num_days_arg =
      argc > 1 ? ParseSize(argv[1], "num_days") : size_t{2000};
  if (!num_days_arg.ok()) {
    std::cerr << "usage: stock_market [num_days]\n";
    return 2;
  }
  const size_t num_days = *num_days_arg;
  constexpr size_t kNumStocks = 40;
  constexpr size_t kNumSectors = 5;

  std::cout << "Simulating " << num_days << " trading days of " << kNumStocks
            << " stocks in " << kNumSectors << " sectors...\n";
  const TransactionDatabase db =
      SimulateMarket(kNumStocks, num_days, kNumSectors, /*seed=*/2026);

  MiningOptions options;
  options.min_support = 0.35;  // stock sets that rise together >= 35% of days

  const MaximalSetResult pincer =
      MineMaximal(db, options, Algorithm::kPincerAdaptive);
  const MaximalSetResult apriori =
      MineMaximal(db, options, Algorithm::kApriori);

  std::cout << "\nMaximal co-moving stock sets (support >= 35% of days): "
            << pincer.mfs.size() << ", longest has " << MaxLength(pincer.mfs)
            << " stocks\n";
  size_t shown = 0;
  for (const FrequentItemset& fi : pincer.mfs) {
    if (fi.itemset.size() >= MaxLength(pincer.mfs) && shown < 5) {
      std::cout << "  " << fi.itemset << " rose together on " << fi.support
                << " days\n";
      ++shown;
    }
  }

  TablePrinter table({"algorithm", "time_ms", "passes", "candidates"});
  for (const auto& [name, result] :
       {std::pair<std::string, const MaximalSetResult&>{"pincer-adaptive", pincer},
        {"apriori", apriori}}) {
    table.AddRow({name,
                  TablePrinter::FormatDouble(result.stats.elapsed_millis, 1),
                  TablePrinter::FormatInt(
                      static_cast<int64_t>(result.stats.passes)),
                  TablePrinter::FormatInt(static_cast<int64_t>(
                      result.stats.reported_candidates))});
  }
  std::cout << "\n";
  table.Print(std::cout);
  std::cout << (pincer.mfs == apriori.mfs
                    ? "\nBoth algorithms agree on the maximal sets.\n"
                    : "\nERROR: algorithms disagree!\n");
  return pincer.mfs == apriori.mfs ? 0 : 1;
}
