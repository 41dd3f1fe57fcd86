// Reproduces the paper's §5 qualitative claim about Partition [16] and
// Sampling [18]: both reduce the number of database passes, "however, they
// are still inefficient when the maximal frequent itemsets are long" —
// because, like Apriori, they enumerate every frequent itemset, while
// Pincer-Search's candidate count stays near the number of *maximal*
// itemsets. This harness compares all four algorithms on a concentrated
// database as the maximal itemsets grow.
//
//   ./related_work [--scale=N] [--budget=MS] [--json=FILE]
//
// The budget bounds each mining run; rows whose run tripped it report '>'
// lower bounds (and skip the cross-algorithm agreement check, since the
// partial outputs legitimately differ).

#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "counting/counter_factory.h"
#include "extensions/partition.h"
#include "extensions/sampling.h"
#include "gen/quest_gen.h"
#include "mining/miner.h"
#include "util/table_printer.h"

namespace {

using namespace pincer;

void Compare(const TransactionDatabase& db, const std::string& db_name,
             double min_support, const bench::BenchConfig& config) {
  MiningOptions options;
  options.min_support = min_support;
  options.time_budget_ms = config.time_budget_ms;
  options.num_threads = config.num_threads;
  options.collect_counter_metrics = bench::JsonOutputEnabled();

  TablePrinter table({"algorithm", "time_ms", "full_db_passes",
                      "candidates", "frequent_or_mfs"});

  const MaximalSetResult pincer =
      MineMaximal(db, options, Algorithm::kPincerAdaptive);
  const FrequentSetResult apriori = AprioriMine(db, options);
  const FrequentSetResult partition = PartitionMine(db, options);
  SamplingOptions sampling_options;
  sampling_options.sample_fraction = 0.1;
  const FrequentSetResult sampling =
      SamplingMine(db, options, sampling_options);

  const bool any_aborted = apriori.stats.aborted || partition.stats.aborted ||
                           sampling.stats.aborted || pincer.stats.aborted;
  // With a tripped budget the outputs are legitimately partial; the
  // cross-check only applies to complete runs.
  if (!any_aborted && (!(apriori.frequent == partition.frequent) ||
                       !(apriori.frequent == sampling.frequent) ||
                       !(apriori.MaximalItemsets() == pincer.mfs))) {
    std::cerr << "FATAL: algorithms disagree at minsup " << min_support
              << "\n";
    // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded CLI setup
    std::exit(1);
  }

  auto add_row = [&table](const std::string& name, const MiningStats& stats,
                          size_t output_size) {
    std::string time_ms = TablePrinter::FormatDouble(stats.elapsed_millis, 1);
    if (stats.aborted) time_ms.insert(0, 1, '>');
    table.AddRow({name, std::move(time_ms),
                  TablePrinter::FormatInt(static_cast<int64_t>(stats.passes)),
                  TablePrinter::FormatInt(
                      static_cast<int64_t>(stats.reported_candidates)),
                  TablePrinter::FormatInt(static_cast<int64_t>(output_size))});
  };
  add_row("apriori", apriori.stats, apriori.frequent.size());
  add_row("partition", partition.stats, partition.frequent.size());
  add_row("sampling", sampling.stats, sampling.frequent.size());
  add_row("pincer-adaptive", pincer.stats, pincer.mfs.size());

  bench::JsonRow base_row;
  base_row.experiment = "Related work (§5)";
  base_row.database = db_name;
  base_row.num_transactions = db.size();
  base_row.backend = std::string(CounterBackendName(options.backend));
  base_row.min_support = min_support;
  auto record = [&base_row](const std::string& algorithm,
                            const MiningStats& stats) {
    bench::JsonRow row = base_row;
    row.algorithm = algorithm;
    bench::RecordJsonRow(row, stats);
  };
  record("apriori", apriori.stats);
  record("partition", partition.stats);
  record("sampling", sampling.stats);
  {
    bench::JsonRow row = base_row;
    row.algorithm = "pincer-adaptive";
    if (!pincer.stats.aborted) {
      row.mfs_size = static_cast<int64_t>(pincer.mfs.size());
      row.mfs_max_len = static_cast<int64_t>(MaxLength(pincer.mfs));
    }
    bench::RecordJsonRow(row, pincer.stats);
  }

  std::cout << "\nmin support " << min_support * 100
            << "% — frequent itemsets: " << apriori.frequent.size()
            << ", maximal: " << pincer.mfs.size() << "\n";
  table.Print(std::cout);
  std::cout.flush();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchConfig config = bench::ParseBenchArgs(argc, argv, 10);

  for (double avg_pattern_size : {6.0, 10.0}) {
    QuestParams params;
    params.num_transactions = std::max<size_t>(100000 / config.scale, 100);
    params.num_items = 1000;
    params.num_patterns = 50;
    params.avg_transaction_size = 20;
    params.avg_pattern_size = avg_pattern_size;
    params.seed = 19980323;
    std::cout << "\n== Related work (§5) on " << params.Name() << " ==\n";
    const StatusOr<TransactionDatabase> db = GenerateQuestDatabase(params);
    if (!db.ok()) {
      std::cerr << db.status() << "\n";
      return 1;
    }
    Compare(*db, params.Name(), avg_pattern_size <= 6 ? 0.15 : 0.10, config);
  }
  std::cout << "\nShape to observe: Partition/Sampling cut *passes* but "
               "their candidate counts track Apriori's (every frequent "
               "itemset), while Pincer-Search's track the number of maximal "
               "itemsets.\n";
  return 0;
}
