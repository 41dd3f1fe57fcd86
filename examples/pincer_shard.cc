// Fault-tolerant sharded miner: splits a basket file into shards, mines
// each shard in a supervised worker process (crash recovery from per-shard
// checkpoints, capped-exponential-backoff retries), then merges and
// validates with one streaming scan. The output is bit-identical to
// mine_cli over the same file (docs/sharding.md).
//
//   ./pincer_shard <database.basket> --work-dir=DIR [flags]
//
// The flag table in main() is the documentation: run with no arguments, or
// with an unknown flag, for the usage it generates. The worker mode the
// supervisor execs (`--worker <shard.basket> --out=FILE ...`) parses its
// argv with ParseShardWorkerArgv (orchestrate/worker.h).
//
// Exit status: 0 on success, 1 on runtime failure, 2 on bad usage.

#include <unistd.h>

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "orchestrate/orchestrator.h"
#include "orchestrate/worker.h"
#include "util/failpoint.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/metrics.h"

namespace {

/// The path workers are exec'd from: this very binary. /proc/self/exe is
/// authoritative on Linux; argv[0] is the fallback (tests always pass
/// --worker-binary explicitly anyway).
std::string SelfBinary(const char* argv0) {
  char buffer[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (len > 0) return std::string(buffer, static_cast<size_t>(len));
  return argv0;
}

int RunWorker(int argc, char** argv) {
  using namespace pincer;
  // Failpoints arm from the environment the supervisor passed us, so a
  // fault schedule can target first attempts only.
  if (const Status armed = failpoint::ArmFromEnv(); !armed.ok()) {
    std::cerr << "PINCER_FAILPOINTS: " << armed << "\n";
    return 2;
  }
  const StatusOr<ShardWorkerConfig> config =
      ParseShardWorkerArgv({argv + 2, argv + argc});
  if (!config.ok()) {
    std::cerr << "worker: " << config.status() << "\n";
    return 2;
  }
  if (const Status status = RunShardWorker(*config); !status.ok()) {
    std::cerr << "worker: " << status << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pincer;

  if (argc >= 2 && std::string(argv[1]) == "--worker") {
    return RunWorker(argc, argv);
  }

  OrchestratorOptions options;
  options.worker_binary = SelfBinary(argv[0]);
  std::string stats_json_path;
  std::string worker_failpoints;
  using enum FlagCheck;
  Flags flags("pincer_shard", "<database.basket>");
  flags.Number("shards", &options.num_shards, "shard count", kPositive)
      .Number("workers", &options.slots, "concurrent workers", kPositive)
      .Number("min-support", &options.min_support, "fraction of |D|",
              kSupportFraction)
      .Enum("algorithm", &options.algorithm, ParseAlgorithm, AlgorithmName,
            kAllAlgorithms, "mining algorithm")
      .Number("worker-threads", &options.worker_threads,
              "counting threads per worker")
      .String("work-dir", "DIR", &options.work_dir, "required work dir")
      .Bool("resume", &options.resume, "reuse the work dir's results")
      .Enum("malformed", &options.malformed_rows, ParseMalformedRowPolicy,
            MalformedRowPolicyName, kAllMalformedRowPolicies,
            "malformed-row policy")
      .Number("max-attempts", &options.max_attempts, "attempts per shard",
              kPositive)
      .Number("attempt-deadline-ms", &options.attempt_deadline_ms,
              "per-attempt deadline, 0 = none", kNonNegativeMs)
      .Number("term-grace-ms", &options.term_grace_ms,
              "SIGTERM -> SIGKILL grace", kNonNegativeMs)
      .Number("backoff-ms", &options.backoff.initial_backoff_ms,
              "initial retry backoff", kNonNegativeMs)
      .Number("max-backoff-ms", &options.backoff.max_backoff_ms,
              "backoff cap, 0 = uncapped", kNonNegativeMs)
      .Number("budget-ms", &options.validation_budget_ms,
              "validation-scan budget, 0 = none", kNonNegativeMs)
      .String("stats-json", "FILE", &stats_json_path, "stats as JSON",
              kNonEmptyPath)
      .String("worker-binary", "PATH", &options.worker_binary, "worker")
      .String("worker-failpoints", "SPEC", &worker_failpoints,
              "PINCER_FAILPOINTS of first attempts")
      .Number("die-after-checkpoints", &options.die_after_checkpoints,
              "first attempts die after N checkpoints");
  if (argc < 2) return flags.UsageError();
  if (!flags.ParseArgv(argc, argv, 2)) return 2;
  const std::string path = argv[1];
  if (options.work_dir.empty()) {
    std::cerr << "--work-dir=DIR is required\n";
    return 2;
  }
  if (!worker_failpoints.empty()) {
    options.first_attempt_env.emplace_back("PINCER_FAILPOINTS",
                                           worker_failpoints);
  }

  const StatusOr<OrchestratorResult> result =
      OrchestrateMining(path, options);
  if (!result.ok()) {
    std::cerr << "error: " << result.status() << "\n";
    return 1;
  }

  // Same output format as mine_cli, so the two are directly diffable.
  std::cout << "# maximal frequent itemsets: " << result->mfs.size() << "\n";
  std::cout << "# format: support <tab> items...\n";
  for (const FrequentItemset& fi : result->mfs) {
    std::cout << fi.support << "\t";
    for (size_t i = 0; i < fi.itemset.size(); ++i) {
      if (i > 0) std::cout << ' ';
      std::cout << fi.itemset[i];
    }
    std::cout << "\n";
  }

  const OrchestratorStats& stats = result->stats;
  std::cerr << "shards=" << stats.num_shards
            << " candidates=" << stats.candidates
            << " min_count=" << result->min_count
            << " reused=" << stats.shard_results_reused << "\n";
  for (size_t i = 0; i < stats.workers.tasks.size(); ++i) {
    const TaskReport& report = stats.workers.tasks[i];
    if (report.retries > 0 || report.recovered_from_checkpoint > 0) {
      std::cerr << "shard " << i << ": attempts=" << report.attempts
                << " retries=" << report.retries
                << " recovered_from_checkpoint="
                << report.recovered_from_checkpoint << "\n";
    }
  }

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
    json.KeyValue("tool", "pincer_shard");
    json.KeyValue("input", path);
    json.KeyValue("algorithm", AlgorithmName(options.algorithm));
    json.KeyValue("min_support", options.min_support);
    json.KeyValue("min_count", result->min_count);
    json.KeyValue("mfs_size", static_cast<uint64_t>(result->mfs.size()));
    json.KeyValue("mfs_max_len",
                  static_cast<uint64_t>(MaxLength(result->mfs)));
    json.Key("orchestrator").BeginObject();
    json.KeyValue("num_shards", stats.num_shards);
    json.KeyValue("transactions", stats.transactions);
    json.KeyValue("rows_skipped", stats.rows_skipped);
    json.KeyValue("shard_results_reused", stats.shard_results_reused);
    json.KeyValue("candidates", stats.candidates);
    json.KeyValue("validation_transactions", stats.validation_transactions);
    json.KeyValue("validation_retries", stats.validation_retries);
    json.KeyValue("validation_rows_skipped", stats.validation_rows_skipped);
    json.KeyValue("shard_ms", stats.shard_ms);
    json.KeyValue("supervise_ms", stats.supervise_ms);
    json.KeyValue("merge_ms", stats.merge_ms);
    json.KeyValue("validate_ms", stats.validate_ms);
    json.Key("workers").BeginArray();
    for (size_t i = 0; i < stats.workers.tasks.size(); ++i) {
      const TaskReport& report = stats.workers.tasks[i];
      json.BeginObject();
      json.KeyValue("shard", static_cast<uint64_t>(i));
      json.KeyValue("attempts", report.attempts);
      json.KeyValue("retries", report.retries);
      json.KeyValue("recovered_from_checkpoint",
                    report.recovered_from_checkpoint);
      json.KeyValue("timeouts", report.timeouts);
      json.KeyValue("invalid_results", report.invalid_results);
      json.KeyValue("succeeded", report.succeeded);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    json.EndObject();
    out << "\n";
    if (!out.good()) {
      std::cerr << "error: failed writing " << stats_json_path << "\n";
      return 1;
    }
  }
  return 0;
}
