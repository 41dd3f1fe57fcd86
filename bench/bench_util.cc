#include "bench/bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "counting/counter_factory.h"
#include "data/database_stats.h"
#include "mining/miner.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/metrics.h"
#include "util/table_printer.h"

namespace pincer {
namespace bench {

namespace {

// --json state shared by all experiments of one harness process. The file
// is rewritten as a complete JSON array after every record, so a run that
// is aborted at any point — even killed mid-pass, when atexit never fires —
// still leaves a parseable file with everything measured so far. Records
// are a few hundred bytes and mining runs are seconds-to-minutes, so the
// rewrite cost is irrelevant.
std::string& JsonPath() {
  // Destructor order with the atexit flush would be a hazard, so leak it.
  // lint: allow-new(leaked function-local static)
  static std::string* path = new std::string();
  return *path;
}

std::vector<std::string>& JsonRecords() {
  // lint: allow-new(leaked function-local static, as above)
  static std::vector<std::string>* records = new std::vector<std::string>();
  return *records;
}

void FlushJsonRecords() {
  const std::string& path = JsonPath();
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write JSON output to %s\n", path.c_str());
    return;
  }
  out << "[";
  const std::vector<std::string>& records = JsonRecords();
  for (size_t i = 0; i < records.size(); ++i) {
    if (i > 0) out << ",";
    out << "\n" << records[i];
  }
  if (!records.empty()) out << "\n";
  out << "]\n";
}

void ReportJsonRecords() {
  if (JsonPath().empty()) return;
  std::fprintf(stderr, "wrote %zu JSON record(s) to %s\n",
               JsonRecords().size(), JsonPath().c_str());
}

}  // namespace

bool JsonOutputEnabled() { return !JsonPath().empty(); }

void RecordJsonRow(const JsonRow& row, const MiningStats& stats) {
  if (!JsonOutputEnabled()) return;
  std::ostringstream os;
  JsonWriter json(os);
  json.BeginObject();
  json.KeyValue("schema_version", kStatsJsonSchemaVersion);
  json.KeyValue("schema_minor", kStatsJsonSchemaMinorVersion);
  json.KeyValue("experiment", row.experiment);
  json.KeyValue("database", row.database);
  json.KeyValue("num_transactions",
                static_cast<uint64_t>(row.num_transactions));
  json.KeyValue("algorithm", row.algorithm);
  json.KeyValue("backend", row.backend);
  json.KeyValue("min_support", row.min_support);
  if (!row.variant.empty()) json.KeyValue("variant", row.variant);
  if (row.mfs_size >= 0) json.KeyValue("mfs_size", row.mfs_size);
  if (row.mfs_max_len >= 0) json.KeyValue("mfs_max_len", row.mfs_max_len);
  json.Key("stats");
  stats.ToJson(json);
  json.EndObject();
  JsonRecords().push_back(os.str());
  FlushJsonRecords();
}

BenchConfig ParseBenchArgs(int argc, char** argv, size_t default_scale) {
  BenchConfig config;
  config.scale = default_scale;
  using enum FlagCheck;
  Flags flags(argv[0]);
  flags.Number("scale", &config.scale, "divide |D| = 100K by N", kPositive)
      .Custom("full", "", "the paper's |D| (--scale=1)",
              [&config](std::string_view) {
                config.scale = 1;
                return Status::OK();
              })
      .Enum("backend", &config.backend, ParseCounterBackend,
            CounterBackendName, AllCounterBackends(), "counting backend")
      .Number("threads", &config.num_threads, "counting threads, 0 = all")
      .Bool("skip-apriori", &config.skip_apriori, "Pincer rows only")
      .Number("budget", &config.time_budget_ms, "soft budget, 0 = none",
              kNonNegativeMs)
      .String("json", "FILE", &config.json_path, "rows as JSON records",
              kNonEmptyPath);
  // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded CLI setup
  if (!flags.ParseArgv(argc, argv, 1)) std::exit(2);
  if (!config.json_path.empty() && JsonPath() != config.json_path) {
    const bool first = JsonPath().empty();
    JsonPath() = config.json_path;
    // Write the (empty) array up front so even a zero-record run leaves a
    // valid file, and report the record count on normal exit.
    FlushJsonRecords();
    if (first) std::atexit(ReportJsonRecords);
  }
  return config;
}

void RunExperiment(const ExperimentSpec& spec, const BenchConfig& config) {
  QuestParams quest = spec.quest;
  quest.num_transactions =
      std::max<size_t>(quest.num_transactions / config.scale, 100);

  std::cout << "\n== " << spec.title << ": " << quest.Name();
  if (config.scale != 1) std::cout << "  [scaled 1/" << config.scale << "]";
  std::cout << " ==\n";

  const StatusOr<TransactionDatabase> db = GenerateQuestDatabase(quest);
  if (!db.ok()) {
    std::cerr << "generation failed: " << db.status() << "\n";
    // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded CLI setup
    std::exit(1);
  }
  const DatabaseStats stats = ComputeStats(*db);
  std::cout << "|D|=" << stats.num_transactions
            << " avg|T|=" << TablePrinter::FormatDouble(
                   stats.avg_transaction_size, 1)
            << " active items=" << stats.num_active_items << "\n";

  TablePrinter table({"minsup", "apriori_ms", "pincer_ms", "time_ratio",
                      "apriori_cands", "pincer_cands", "cand_ratio",
                      "apriori_passes", "pincer_passes", "|MFS|", "max_len"});

  JsonRow base_row;
  base_row.experiment = spec.title;
  base_row.database = quest.Name();
  base_row.num_transactions = stats.num_transactions;
  base_row.backend = std::string(CounterBackendName(config.backend));

  for (double min_support : spec.min_supports) {
    MiningOptions options;
    options.min_support = min_support;
    options.backend = config.backend;
    options.num_threads = config.num_threads;
    options.collect_counter_metrics = JsonOutputEnabled();

    MiningOptions pincer_options = options;
    pincer_options.time_budget_ms = config.time_budget_ms;
    const MaximalSetResult pincer =
        MineMaximal(*db, pincer_options, Algorithm::kPincerAdaptive);
    {
      JsonRow row = base_row;
      row.algorithm = std::string(AlgorithmName(Algorithm::kPincerAdaptive));
      row.min_support = min_support;
      row.mfs_size = static_cast<int64_t>(pincer.mfs.size());
      row.mfs_max_len = static_cast<int64_t>(MaxLength(pincer.mfs));
      RecordJsonRow(row, pincer.stats);
    }

    std::string apriori_ms = "-";
    std::string apriori_cands = "-";
    std::string apriori_passes = "-";
    std::string time_ratio = "-";
    std::string cand_ratio = "-";
    if (!config.skip_apriori) {
      MiningOptions apriori_options = options;
      apriori_options.time_budget_ms = config.time_budget_ms;
      const MaximalSetResult apriori =
          MineMaximal(*db, apriori_options, Algorithm::kApriori);
      {
        JsonRow row = base_row;
        row.algorithm = std::string(AlgorithmName(Algorithm::kApriori));
        row.min_support = min_support;
        if (!apriori.stats.aborted) {
          row.mfs_size = static_cast<int64_t>(apriori.mfs.size());
          row.mfs_max_len = static_cast<int64_t>(MaxLength(apriori.mfs));
        }
        RecordJsonRow(row, apriori.stats);
      }
      if (apriori.stats.aborted) {
        // The paper's explosion regime: report what is known as lower
        // bounds instead of waiting hours for the baseline.
        auto lower_bound = [](std::string value) {
          value.insert(0, 1, '>');
          return value;
        };
        apriori_ms = lower_bound(
            TablePrinter::FormatDouble(apriori.stats.elapsed_millis, 0));
        apriori_cands = lower_bound(TablePrinter::FormatInt(
            static_cast<int64_t>(apriori.stats.reported_candidates)));
        apriori_passes = lower_bound(TablePrinter::FormatInt(
            static_cast<int64_t>(apriori.stats.passes)));
        time_ratio = lower_bound(TablePrinter::FormatRatio(
            apriori.stats.elapsed_millis, pincer.stats.elapsed_millis));
        cand_ratio = lower_bound(TablePrinter::FormatRatio(
            static_cast<double>(apriori.stats.reported_candidates),
            static_cast<double>(pincer.stats.reported_candidates)));
      } else {
        if (!pincer.stats.aborted && !(apriori.mfs == pincer.mfs)) {
          std::cerr << "FATAL: Apriori and Pincer-Search disagree at minsup "
                    << min_support << "\n";
          // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded CLI setup
          std::exit(1);
        }
        apriori_ms =
            TablePrinter::FormatDouble(apriori.stats.elapsed_millis, 1);
        apriori_cands = TablePrinter::FormatInt(
            static_cast<int64_t>(apriori.stats.reported_candidates));
        apriori_passes = TablePrinter::FormatInt(
            static_cast<int64_t>(apriori.stats.passes));
        time_ratio = TablePrinter::FormatRatio(apriori.stats.elapsed_millis,
                                               pincer.stats.elapsed_millis);
        cand_ratio = TablePrinter::FormatRatio(
            static_cast<double>(apriori.stats.reported_candidates),
            static_cast<double>(pincer.stats.reported_candidates));
      }
    }

    std::string pincer_ms =
        TablePrinter::FormatDouble(pincer.stats.elapsed_millis, 1);
    if (pincer.stats.aborted) pincer_ms.insert(0, 1, '>');
    table.AddRow({TablePrinter::FormatPercent(min_support), apriori_ms,
                  std::move(pincer_ms),
                  time_ratio, apriori_cands,
                  TablePrinter::FormatInt(static_cast<int64_t>(
                      pincer.stats.reported_candidates)),
                  cand_ratio, apriori_passes,
                  TablePrinter::FormatInt(
                      static_cast<int64_t>(pincer.stats.passes)),
                  TablePrinter::FormatInt(
                      static_cast<int64_t>(pincer.mfs.size())),
                  TablePrinter::FormatInt(
                      static_cast<int64_t>(MaxLength(pincer.mfs)))});
    std::cerr << "  [" << spec.title << "] minsup "
              << TablePrinter::FormatPercent(min_support) << " done\n";
  }
  table.Print(std::cout);
  std::cout.flush();
}

}  // namespace bench
}  // namespace pincer
