// Shared experiment runner for the Figure 3 / Figure 4 reproductions: each
// experiment generates one Quest database, sweeps minimum supports, runs the
// Apriori baseline and the adaptive Pincer-Search on each, and prints the
// series the paper plots (relative time, relative candidates, passes).

#ifndef PINCER_BENCH_BENCH_UTIL_H_
#define PINCER_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "gen/quest_gen.h"
#include "mining/mining_stats.h"
#include "mining/options.h"

namespace pincer {
namespace bench {

/// Command-line configuration shared by the figure harnesses.
struct BenchConfig {
  /// Divide |D| by this factor (paper scale is 100K transactions). Each
  /// harness picks its default; --scale=1 or --full gives the paper's |D|.
  size_t scale = 10;
  /// Counting backend for both algorithms.
  CounterBackend backend = CounterBackend::kTrie;
  /// Counting worker threads for both algorithms (MiningOptions::num_threads:
  /// 1 = serial, 0 = hardware concurrency). Results are identical for every
  /// value; only the per-pass counting wall time changes.
  size_t num_threads = 1;
  /// Skip the Apriori baseline (Pincer rows only).
  bool skip_apriori = false;
  /// Per-run Apriori wall-clock budget in ms (0 = unlimited). When Apriori
  /// exceeds it the row reports a lower-bound ratio — this is how the
  /// harness survives the settings where the paper's point is precisely
  /// that Apriori explodes (T20.I15 at 6-7%). Soft budget: checked between
  /// passes; default 30 s. Override with --budget=MS.
  double time_budget_ms = 30000;
  /// When non-empty (--json=FILE), every (algorithm, setting) row is also
  /// emitted as a schema-versioned JSON record; the file holds one JSON
  /// array and is rewritten after each record, so an interrupted run still
  /// leaves a parseable file. Enables
  /// MiningOptions::collect_counter_metrics for the measured runs.
  std::string json_path;
};

/// Parses the harness flags over `default_scale`. A bad flag or value
/// prints the usage generated from the flag table and exits 2.
BenchConfig ParseBenchArgs(int argc, char** argv, size_t default_scale);

/// True once ParseBenchArgs has seen --json=FILE in this process.
bool JsonOutputEnabled();

/// Identity of one (algorithm, setting) result row for --json output.
/// Optional fields use sentinels (-1 / empty string) and are then omitted
/// from the record.
struct JsonRow {
  std::string experiment;      // section title, e.g. "Figure 3, row 1 (...)"
  std::string database;        // e.g. "T20.I10.D10000"
  size_t num_transactions = 0;
  std::string algorithm;       // AlgorithmName(...) or harness-specific
  std::string backend;         // CounterBackendName(...)
  double min_support = 0.0;
  std::string variant;         // ablation label ("" = omitted)
  int64_t mfs_size = -1;       // -1 = omitted
  int64_t mfs_max_len = -1;    // -1 = omitted
};

/// Queues one record (row identity + full MiningStats::ToJson payload) for
/// the --json file; see EXPERIMENTS.md for the schema. No-op when JSON
/// output is disabled, so harnesses may call it unconditionally.
void RecordJsonRow(const JsonRow& row, const MiningStats& stats);

/// One database + support sweep.
struct ExperimentSpec {
  std::string title;       // e.g. "Figure 3, row 1"
  QuestParams quest;       // database parameters (|D| at paper scale)
  std::vector<double> min_supports;  // fractions, descending
};

/// Runs the experiment and prints one table: per support row, Apriori vs
/// Pincer time / candidates / passes plus the ratios, exactly the series of
/// the paper's figures. Also cross-checks that both algorithms produce the
/// same MFS (aborts loudly otherwise).
void RunExperiment(const ExperimentSpec& spec, const BenchConfig& config);

}  // namespace bench
}  // namespace pincer

#endif  // PINCER_BENCH_BENCH_UTIL_H_
