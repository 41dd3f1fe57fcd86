#include "orchestrate/worker.h"

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "data/database_io.h"
#include "mining/checkpoint.h"
#include "orchestrate/shard_result.h"
#include "util/flags.h"
#include "util/timer.h"

namespace pincer {

namespace {

bool FileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

std::string FormatMinSupport(double min_support) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", min_support);
  return text;
}

}  // namespace

MiningOptions ShardWorkerMiningOptions(const ShardWorkerConfig& config) {
  MiningOptions options;
  options.min_support = config.min_support;
  options.backend = CounterBackend::kAuto;
  options.num_threads = config.num_threads;
  return options;
}

Status RunShardWorker(const ShardWorkerConfig& config) {
  Timer timer;
  // Strict read: the sharder already enforced the malformed-row policy, so
  // a malformed row here means the shard file itself was corrupted.
  const StatusOr<TransactionDatabase> db =
      ReadDatabaseFromFile(config.shard_path);
  if (!db.ok()) {
    return Status(db.status().code(), "reading shard " + config.shard_path +
                                          ": " + db.status().message());
  }

  DatabaseFingerprint fingerprint;
  PINCER_RETURN_IF_ERROR(
      FillFileFingerprint(config.shard_path, fingerprint));
  fingerprint.rows = db->size();
  fingerprint.items = db->num_items();

  MiningOptions options = ShardWorkerMiningOptions(config);
  size_t checkpoints_written = 0;
  if (!config.checkpoint_path.empty()) {
    options.checkpoint_sink =
        [&, write = FileCheckpointSink(fingerprint, config.checkpoint_path)](
            const Checkpoint& checkpoint) {
          const Status written = write(checkpoint);
          if (written.ok() && config.die_after_checkpoints > 0 &&
              ++checkpoints_written >= config.die_after_checkpoints) {
            // Failure-schedule hook: die the way a crashed worker dies — no
            // cleanup, no result file, checkpoint already durable.
            ::kill(::getpid(), SIGKILL);
          }
          return written;
        };
  }

  MaximalSetResult mined;
  const bool resumed = config.resume && FileExists(config.checkpoint_path);
  if (resumed) {
    StatusOr<MaximalSetResult> result = ResumeMaximalFromFile(
        *db, options, config.algorithm, fingerprint, config.checkpoint_path);
    if (!result.ok()) {
      return Status(result.status().code(),
                    "cannot resume shard " +
                        std::to_string(config.shard_index) + ": " +
                        result.status().message());
    }
    mined = std::move(*result);
  } else {
    mined = MineMaximal(*db, options, config.algorithm);
  }

  ShardResult result;
  result.shard_index = config.shard_index;
  result.shard = fingerprint;
  result.options_fingerprint = OptionsFingerprint(options, config.algorithm);
  result.resumed_from_checkpoint = resumed;
  result.passes = mined.stats.passes;
  result.mine_ms = timer.ElapsedMillis();
  result.mfs = std::move(mined.mfs);
  // Lexicographic order: the file bytes (checksum aside) are then a pure
  // function of the mined SET, identical for fresh and resumed runs.
  std::sort(result.mfs.begin(), result.mfs.end());
  return WriteShardResultToFile(result, config.result_path);
}

std::vector<std::string> ShardWorkerArgv(const std::string& worker_binary,
                                         const ShardWorkerConfig& config) {
  std::vector<std::string> argv = {
      worker_binary,
      "--worker",
      config.shard_path,
      "--out=" + config.result_path,
      "--shard-index=" + std::to_string(config.shard_index),
      "--min-support=" + FormatMinSupport(config.min_support),
      "--algorithm=" + std::string(AlgorithmName(config.algorithm)),
      "--threads=" + std::to_string(config.num_threads),
  };
  if (!config.checkpoint_path.empty()) {
    argv.push_back("--checkpoint=" + config.checkpoint_path);
  }
  if (config.resume) argv.push_back("--resume");
  if (config.die_after_checkpoints > 0) {
    argv.push_back("--die-after-checkpoints=" +
                   std::to_string(config.die_after_checkpoints));
  }
  return argv;
}

StatusOr<ShardWorkerConfig> ParseShardWorkerArgv(
    const std::vector<std::string>& args) {
  ShardWorkerConfig config;
  Flags flags("pincer_shard --worker", "<shard.basket>");
  flags.String("out", "FILE", &config.result_path, "result file")
      .String("checkpoint", "FILE", &config.checkpoint_path, "checkpoint")
      .Bool("resume", &config.resume, "resume from --checkpoint")
      .Number("shard-index", &config.shard_index, "shard number")
      .Number("min-support", &config.min_support, "fraction of the shard")
      .Enum("algorithm", &config.algorithm, ParseAlgorithm, AlgorithmName,
            kAllAlgorithms, "mining algorithm")
      .Number("threads", &config.num_threads, "counting threads")
      .Number("die-after-checkpoints", &config.die_after_checkpoints,
              "die after N checkpoints");
  std::vector<std::string> positionals;
  PINCER_RETURN_IF_ERROR(flags.Parse(args, &positionals));
  if (positionals.size() != 1 || positionals[0].empty()) {
    return Status::InvalidArgument("worker needs one shard file path");
  }
  config.shard_path = positionals[0];
  if (config.result_path.empty()) {
    return Status::InvalidArgument("worker needs --out=FILE");
  }
  if (config.resume && config.checkpoint_path.empty()) {
    return Status::InvalidArgument("--resume requires --checkpoint=FILE");
  }
  return config;
}

}  // namespace pincer
