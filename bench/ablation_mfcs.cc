// Ablation study of the design choices DESIGN.md calls out:
//  1. pure Pincer-Search vs the adaptive variant (MFCS cardinality cap);
//  2. sensitivity to the cap value;
//  3. counting backends (the paper argues the MFCS benefit is structural,
//     not an artifact of the counting data structure — §4.1.1).
//
//   ./ablation_mfcs [--scale=N]

#include <cstdlib>
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "core/pincer_search.h"
#include "counting/counter_factory.h"
#include "gen/quest_gen.h"
#include "mining/miner.h"
#include "util/table_printer.h"

namespace {

using namespace pincer;

// Database label + size for the --json rows, and the counting thread count
// for every run; set once in main() from the parsed BenchConfig.
std::string ablation_db_label;
size_t ablation_db_size = 0;
size_t ablation_num_threads = 1;

void RecordAblationRow(const std::string& experiment,
                       const std::string& algorithm,
                       const std::string& backend, double min_support,
                       const std::string& variant,
                       const MaximalSetResult& result) {
  bench::JsonRow row;
  row.experiment = experiment;
  row.database = ablation_db_label;
  row.num_transactions = ablation_db_size;
  row.algorithm = algorithm;
  row.backend = backend;
  row.min_support = min_support;
  row.variant = variant;
  row.mfs_size = static_cast<int64_t>(result.mfs.size());
  row.mfs_max_len = static_cast<int64_t>(MaxLength(result.mfs));
  bench::RecordJsonRow(row, result.stats);
}

TransactionDatabase MakeConcentratedDb(size_t scale) {
  QuestParams params;
  params.num_transactions = std::max<size_t>(100000 / scale, 100);
  params.num_items = 1000;
  params.num_patterns = 50;
  params.avg_transaction_size = 20;
  params.avg_pattern_size = 10;
  params.seed = 19980323;
  StatusOr<TransactionDatabase> db = GenerateQuestDatabase(params);
  if (!db.ok()) {
    std::cerr << "generation failed: " << db.status() << "\n";
    // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded CLI setup
    std::exit(1);
  }
  return std::move(db).value();
}

// Per-run wall-clock bound so the unbounded (pure) variant cannot stall the
// suite in fat-border regimes; aborted rows are marked with '>'.
constexpr double kAblationBudgetMs = 60000;

std::string MaybeLowerBound(double value, bool aborted) {
  std::string text = TablePrinter::FormatDouble(value, 1);
  if (aborted) text.insert(0, 1, '>');
  return text;
}

void PureVsAdaptive(const TransactionDatabase& db, double min_support) {
  std::cout << "\n== Ablation 1: pure vs adaptive Pincer (minsup "
            << min_support * 100 << "%) ==\n";
  TablePrinter table(
      {"variant", "time_ms", "passes", "candidates", "mfcs_cands",
       "mfcs_disabled"});
  for (size_t cap : {size_t{0}, size_t{10000}}) {
    MiningOptions options;
    options.min_support = min_support;
    options.mfcs_cardinality_limit = cap;
    options.time_budget_ms = kAblationBudgetMs;
    options.num_threads = ablation_num_threads;
    options.collect_counter_metrics = bench::JsonOutputEnabled();
    const MaximalSetResult result = PincerSearch(db, options);
    RecordAblationRow("Ablation 1: pure vs adaptive",
                      cap == 0 ? "pincer" : "pincer-adaptive",
                      std::string(CounterBackendName(options.backend)),
                      min_support, cap == 0 ? "pure" : "adaptive(cap=10000)",
                      result);
    table.AddRow({cap == 0 ? "pure" : "adaptive(cap=10000)",
                  MaybeLowerBound(result.stats.elapsed_millis,
                                  result.stats.aborted),
                  TablePrinter::FormatInt(
                      static_cast<int64_t>(result.stats.passes)),
                  TablePrinter::FormatInt(static_cast<int64_t>(
                      result.stats.reported_candidates)),
                  TablePrinter::FormatInt(
                      static_cast<int64_t>(result.stats.mfcs_candidates)),
                  result.stats.mfcs_disabled ? "yes" : "no"});
  }
  table.Print(std::cout);
}

void CapSensitivity(const TransactionDatabase& db, double min_support) {
  std::cout << "\n== Ablation 2: MFCS cardinality cap sweep (minsup "
            << min_support * 100 << "%) ==\n";
  TablePrinter table({"cap", "time_ms", "passes", "candidates",
                      "mfcs_disabled_at_pass"});
  for (size_t cap : {size_t{10}, size_t{100}, size_t{1000}, size_t{10000},
                     size_t{0}}) {
    MiningOptions options;
    options.min_support = min_support;
    options.mfcs_cardinality_limit = cap;
    options.time_budget_ms = kAblationBudgetMs;
    options.num_threads = ablation_num_threads;
    options.collect_counter_metrics = bench::JsonOutputEnabled();
    const MaximalSetResult result = PincerSearch(db, options);
    const std::string cap_label =
        cap == 0 ? "unlimited"
                 : "cap=" + std::to_string(static_cast<unsigned long long>(cap));
    RecordAblationRow("Ablation 2: MFCS cardinality cap sweep",
                      cap == 0 ? "pincer" : "pincer-adaptive",
                      std::string(CounterBackendName(options.backend)),
                      min_support, cap_label, result);
    table.AddRow({cap == 0 ? "unlimited" : TablePrinter::FormatInt(
                                               static_cast<int64_t>(cap)),
                  MaybeLowerBound(result.stats.elapsed_millis,
                                  result.stats.aborted),
                  TablePrinter::FormatInt(
                      static_cast<int64_t>(result.stats.passes)),
                  TablePrinter::FormatInt(static_cast<int64_t>(
                      result.stats.reported_candidates)),
                  result.stats.mfcs_disabled
                      ? TablePrinter::FormatInt(static_cast<int64_t>(
                            result.stats.mfcs_disabled_at_pass))
                      : "never"});
  }
  table.Print(std::cout);
}

void BackendComparison(const TransactionDatabase& db, double min_support) {
  std::cout << "\n== Ablation 3: counting backends (minsup "
            << min_support * 100 << "%) ==\n";
  TablePrinter table({"backend", "apriori_ms", "pincer_ms", "ratio"});
  for (CounterBackend backend : AllCounterBackends()) {
    MiningOptions options;
    options.min_support = min_support;
    options.backend = backend;
    options.time_budget_ms = kAblationBudgetMs;
    options.num_threads = ablation_num_threads;
    options.collect_counter_metrics = bench::JsonOutputEnabled();
    const MaximalSetResult apriori =
        MineMaximal(db, options, Algorithm::kApriori);
    const MaximalSetResult pincer =
        MineMaximal(db, options, Algorithm::kPincerAdaptive);
    RecordAblationRow("Ablation 3: counting backends",
                      std::string(AlgorithmName(Algorithm::kApriori)),
                      std::string(CounterBackendName(backend)), min_support,
                      "", apriori);
    RecordAblationRow("Ablation 3: counting backends",
                      std::string(AlgorithmName(Algorithm::kPincerAdaptive)),
                      std::string(CounterBackendName(backend)), min_support,
                      "", pincer);
    if (!apriori.stats.aborted && !pincer.stats.aborted &&
        !(apriori.mfs == pincer.mfs)) {
      std::cerr << "FATAL: MFS mismatch on backend "
                << CounterBackendName(backend) << "\n";
      // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded CLI setup
      std::exit(1);
    }
    table.AddRow({std::string(CounterBackendName(backend)),
                  TablePrinter::FormatDouble(apriori.stats.elapsed_millis, 1),
                  TablePrinter::FormatDouble(pincer.stats.elapsed_millis, 1),
                  TablePrinter::FormatRatio(apriori.stats.elapsed_millis,
                                            pincer.stats.elapsed_millis)});
  }
  table.Print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchConfig config = bench::ParseBenchArgs(argc, argv, 10);
  const TransactionDatabase db = MakeConcentratedDb(config.scale);
  ablation_db_label = "T20.I10.D" + std::to_string(db.size());
  ablation_db_size = db.size();
  ablation_num_threads = config.num_threads;
  std::cout << "Ablation database: T20.I10, |L|=50, |D|=" << db.size()
            << "\n";
  PureVsAdaptive(db, 0.08);
  CapSensitivity(db, 0.08);
  BackendComparison(db, 0.10);
  return 0;
}
