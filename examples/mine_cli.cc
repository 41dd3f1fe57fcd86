// Command-line miner: the end-to-end tool a downstream user would run on
// their own basket file.
//
//   ./mine_cli <database.basket> [flags]
//
// The flag table in main() is the documentation: run with no arguments, or
// with an unknown flag, for the usage it generates.
//
// The PINCER_FAILPOINTS environment variable arms fault-injection points
// (see util/failpoint.h) — used by the crash-recovery CI job.
//
// Exit status: 0 on success, 1 on bad input, 2 on bad usage.

#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>

#include "counting/counter_factory.h"
#include "data/database_io.h"
#include "data/database_stats.h"
#include "mining/checkpoint.h"
#include "mining/miner.h"
#include "rules/mfs_rule_gen.h"
#include "util/failpoint.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/metrics.h"

int main(int argc, char** argv) {
  using namespace pincer;

  MiningOptions options;
  Algorithm algorithm = Algorithm::kPincerAdaptive;
  std::optional<double> min_confidence;
  bool print_stats = false;
  bool resume = false;
  std::string stats_json_path;
  std::string checkpoint_path;
  using enum FlagCheck;
  Flags flags("mine_cli", "<database.basket>");
  flags
      .Number("min-support", &options.min_support, "fraction of |D|",
              kSupportFraction)
      .Enum("algorithm", &algorithm, ParseAlgorithm, AlgorithmName,
            kAllAlgorithms, "mining algorithm")
      .Enum("backend", &options.backend, ParseCounterBackend,
            CounterBackendName, AllCounterBackends(),
            "counting backend; parallel = trie")
      .Number("threads", &options.num_threads, "counting threads, 0 = all")
      .Number("rules", &min_confidence,
              "also generate rules at this confidence")
      .Bool("stats", &print_stats, "print per-pass statistics")
      .String("stats-json", "FILE", &stats_json_path,
              "write run statistics as JSON", kNonEmptyPath)
      .Enum("malformed", &options.malformed_rows, ParseMalformedRowPolicy,
            MalformedRowPolicyName, kAllMalformedRowPolicies,
            "bad rows fail the run, or are counted")
      .String("checkpoint", "FILE", &checkpoint_path,
              "write a checkpoint after every pass", kNonEmptyPath)
      .Bool("resume", &resume, "resume from the --checkpoint file");
  if (argc < 2) return flags.UsageError();
  if (!flags.ParseArgv(argc, argv, 2)) return 2;
  const std::string path = argv[1];
  if (min_confidence && (*min_confidence < 0.0 || *min_confidence > 1.0)) {
    std::cerr << "--rules confidence must be in [0, 1]\n";
    return 2;
  }
  if (const Status armed = failpoint::ArmFromEnv(); !armed.ok()) {
    std::cerr << "PINCER_FAILPOINTS: " << armed << "\n";
    return 2;
  }
  options.collect_counter_metrics = !stats_json_path.empty();
  if (resume && checkpoint_path.empty()) {
    std::cerr << "--resume requires --checkpoint=FILE\n";
    return 2;
  }

  DatabaseReadOptions read_options;
  read_options.malformed_rows = options.malformed_rows;
  DatabaseReadReport read_report;
  const StatusOr<TransactionDatabase> db =
      ReadDatabaseFromFile(path, read_options, &read_report);
  if (!db.ok()) {
    std::cerr << "error reading " << path << ": " << db.status() << "\n";
    return 1;
  }
  std::cerr << ComputeStats(*db).ToString();
  if (read_report.rows_skipped > 0) {
    std::cerr << "warning: skipped " << read_report.rows_skipped
              << " malformed row(s) (--malformed=skip)\n";
  }
  if (db->num_dropped_items() > 0) {
    std::cerr << "warning: dropped " << db->num_dropped_items()
              << " item id(s) outside the declared universe\n";
  }

  // The checkpoint carries the database file's identity so --resume can
  // refuse a checkpoint from different data.
  DatabaseFingerprint file_fingerprint;
  if (!checkpoint_path.empty()) {
    if (const Status status = FillFileFingerprint(path, file_fingerprint);
        !status.ok()) {
      std::cerr << "error fingerprinting " << path << ": " << status << "\n";
      return 1;
    }
    options.checkpoint_sink = [&](const Checkpoint& checkpoint) {
      Checkpoint stamped = checkpoint;
      stamped.database.path = file_fingerprint.path;
      stamped.database.file_bytes = file_fingerprint.file_bytes;
      return WriteCheckpointToFile(stamped, checkpoint_path);
    };
  }

  MaximalSetResult result;
  if (resume) {
    const StatusOr<Checkpoint> checkpoint =
        ReadCheckpointFromFile(checkpoint_path);
    if (!checkpoint.ok()) {
      std::cerr << "error reading checkpoint " << checkpoint_path << ": "
                << checkpoint.status() << "\n";
      return 1;
    }
    if (!checkpoint->database.path.empty() &&
        (checkpoint->database.path != file_fingerprint.path ||
         checkpoint->database.file_bytes != file_fingerprint.file_bytes)) {
      std::cerr << "error: checkpoint " << checkpoint_path << " was written "
                << "for " << checkpoint->database.path << " ("
                << checkpoint->database.file_bytes << " bytes), not " << path
                << " (" << file_fingerprint.file_bytes << " bytes)\n";
      return 1;
    }
    StatusOr<MaximalSetResult> resumed =
        ResumeMaximal(*db, options, algorithm, *checkpoint);
    if (!resumed.ok()) {
      std::cerr << "error resuming from " << checkpoint_path << ": "
                << resumed.status() << "\n";
      return 1;
    }
    result = std::move(*resumed);
  } else {
    result = MineMaximal(*db, options, algorithm);
  }
  result.stats.rows_skipped += read_report.rows_skipped;
  result.stats.rows_dropped_items += db->num_dropped_items();
  std::cout << "# maximal frequent itemsets: " << result.mfs.size() << "\n";
  std::cout << "# format: support <tab> items...\n";
  for (const FrequentItemset& fi : result.mfs) {
    std::cout << fi.support << "\t";
    for (size_t i = 0; i < fi.itemset.size(); ++i) {
      if (i > 0) std::cout << ' ';
      std::cout << fi.itemset[i];
    }
    std::cout << "\n";
  }

  if (print_stats) std::cerr << result.stats.ToString();

  if (!stats_json_path.empty()) {
    std::ofstream out(stats_json_path);
    if (!out) {
      std::cerr << "error: cannot write " << stats_json_path << "\n";
      return 1;
    }
    JsonWriter json(out);
    json.BeginObject();
    json.KeyValue("schema_version", kStatsJsonSchemaVersion);
    json.KeyValue("schema_minor", kStatsJsonSchemaMinorVersion);
    json.KeyValue("tool", "mine_cli");
    json.KeyValue("input", path);
    json.KeyValue("algorithm", AlgorithmName(algorithm));
    json.KeyValue("backend", CounterBackendName(options.backend));
    json.KeyValue("min_support", options.min_support);
    json.KeyValue("num_transactions", static_cast<uint64_t>(db->size()));
    json.KeyValue("num_items", static_cast<uint64_t>(db->num_items()));
    json.KeyValue("mfs_size", static_cast<uint64_t>(result.mfs.size()));
    json.KeyValue("mfs_max_len", static_cast<uint64_t>(MaxLength(result.mfs)));
    json.Key("stats");
    result.stats.ToJson(json);
    json.EndObject();
    out << "\n";
    if (!out.good()) {
      std::cerr << "error: failed writing " << stats_json_path << "\n";
      return 1;
    }
  }

  if (min_confidence) {
    RuleOptions rule_options;
    rule_options.min_confidence = *min_confidence;
    const std::vector<AssociationRule> rules =
        GenerateRulesFromMfs(*db, result, options, rule_options);
    std::cout << "# rules (confidence >= " << *min_confidence
              << "): " << rules.size() << "\n";
    for (const AssociationRule& rule : rules) {
      std::cout << rule << "\n";
    }
  }
  return 0;
}
