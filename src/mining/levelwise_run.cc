#include "mining/levelwise_run.h"

#include <utility>

#include "counting/counter_factory.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace pincer {

LevelwiseRun::LevelwiseRun(const TransactionDatabase& db,
                           const MiningOptions& options,
                           std::string_view algorithm, MiningStats& stats,
                           size_t combine_threshold)
    : db_(db),
      options_(options),
      algorithm_(algorithm),
      combine_threshold_(combine_threshold),
      stats_(stats),
      min_count_(db.MinSupportCount(options.min_support)),
      max_passes_(options.max_passes > 0 ? options.max_passes
                                         : db.num_items() + 2),
      owned_pool_(options.shared_pool != nullptr
                      ? nullptr
                      : std::make_unique<ThreadPool>(options.num_threads)),
      pool_(options.shared_pool != nullptr ? options.shared_pool
                                           : owned_pool_.get()),
      owned_counter_(options.resident_counter != nullptr
                         ? nullptr
                         : CreateCounter(options.backend, db, pool_)),
      counter_(options.resident_counter != nullptr ? options.resident_counter
                                                   : owned_counter_.get()) {
  if (options.time_budget_ms > 0) budget_.emplace(options.time_budget_ms);
  // Unconditional: a resident counter may carry a previous run's sinks.
  counter_->set_metrics(options.collect_counter_metrics ? &stats_.counting
                                                        : nullptr);
  counter_->set_scan_budget(budget());
  stats_.num_threads = pool_->num_threads();
}

LevelwiseRun::~LevelwiseRun() {
  if (options_.resident_counter != nullptr) {
    counter_->set_metrics(nullptr);
    counter_->set_scan_budget(nullptr);
  }
}

Status LevelwiseRun::Restore(const Checkpoint& checkpoint) {
  PINCER_RETURN_IF_ERROR(ValidateCheckpointForResume(
      checkpoint, algorithm_, Fingerprint(), db_));
  stats_ = checkpoint.stats;
  stats_.num_threads = pool_->num_threads();
  // Checkpointed wall clock covers completed work; this run adds its own.
  elapsed_base_ = stats_.elapsed_millis;
  return Status::OK();
}

std::vector<uint64_t> LevelwiseRun::CountItems(PassStats& pass) {
  pass.num_candidates = db_.num_items();
  if (options_.use_array_fast_path) {
    std::vector<uint64_t> counts;
    {
      ScopedMsTimer timer(pass.counting_ms);
      counts = CountSingletons(db_, pool_, budget());
    }
    LatchScanAbort();
    return counts;
  }
  std::vector<Itemset> singles;
  singles.reserve(db_.num_items());
  for (ItemId item = 0; item < db_.num_items(); ++item) {
    singles.push_back(Itemset{item});
  }
  return Count(singles, pass);
}

PairCountMatrix LevelwiseRun::CountPairs(
    const std::vector<Itemset>& singletons, PassStats& pass) {
  std::vector<ItemId> items;
  items.reserve(singletons.size());
  for (const Itemset& single : singletons) items.push_back(single[0]);
  PairCountMatrix matrix(items);
  pass.num_candidates =
      items.size() < 2 ? 0 : items.size() * (items.size() - 1) / 2;
  if (options_.use_array_fast_path) {
    {
      ScopedMsTimer timer(pass.counting_ms);
      matrix.CountDatabase(db_, pool_, budget());
    }
    LatchScanAbort();
    return matrix;
  }
  // The backend counts the pairs in the matrix's packed (i < j) order, so
  // its counts are the matrix's raw counts.
  std::vector<Itemset> pairs;
  pairs.reserve(pass.num_candidates);
  for (size_t i = 0; i < items.size(); ++i) {
    for (size_t j = i + 1; j < items.size(); ++j) {
      pairs.push_back(Itemset{items[i], items[j]});
    }
  }
  std::vector<uint64_t> counts = Count(pairs, pass);
  if (!stats_.aborted) matrix.RestoreCounts(std::move(counts));
  return matrix;
}

std::vector<uint64_t> LevelwiseRun::Count(const std::vector<Itemset>& batch,
                                          PassStats& pass) {
  std::vector<uint64_t> counts;
  {
    ScopedMsTimer timer(pass.counting_ms);
    counts = counter_->CountSupports(batch);
  }
  pass.backend_used = std::string(CounterBackendName(counter_->backend_used()));
  LatchScanAbort();
  return counts;
}

bool LevelwiseRun::StopBeforePass(size_t pass, bool work_remains) {
  if (!work_remains) return true;
  if (stats_.passes >= max_passes_) {
    stats_.aborted = true;
    if (options_.verbose) {
      PINCER_LOG(kInfo) << algorithm_ << ": pass cap " << max_passes_
                        << " reached with work left; result truncated";
    }
    return true;
  }
  // Check() latches the same ScanBudget the counting scans poll, keeping
  // stats.budget_exceeded in agreement with `aborted`.
  if (pass >= 3 && budget_.has_value() && budget_->Check()) {
    stats_.aborted = true;
    return true;
  }
  return false;
}

void LevelwiseRun::RecordPass(PassStats pass) {
  ++stats_.passes;
  stats_.total_candidates += pass.num_candidates + pass.num_mfcs_candidates;
  if (pass.pass >= 3) stats_.reported_candidates += pass.num_candidates;
  stats_.reported_candidates += pass.num_mfcs_candidates;
  stats_.mfcs_candidates += pass.num_mfcs_candidates;
  if (options_.verbose) {
    PINCER_LOG(kInfo) << algorithm_ << " pass " << pass.pass << ": "
                      << pass.num_frequent << "/" << pass.num_candidates
                      << " candidates frequent, " << pass.num_mfcs_candidates
                      << " MFCS elements counted, |MFCS|="
                      << pass.mfcs_size_after;
  }
  stats_.per_pass.push_back(std::move(pass));
}

Checkpoint LevelwiseRun::CheckpointHeader(size_t next_pass) const {
  Checkpoint checkpoint;
  checkpoint.algorithm = algorithm_;
  checkpoint.next_pass = next_pass;
  checkpoint.options_fingerprint = Fingerprint();
  checkpoint.database.rows = db_.size();
  checkpoint.database.items = db_.num_items();
  checkpoint.stats = stats_;
  checkpoint.stats.elapsed_millis = elapsed_base_ + timer_.ElapsedMillis();
  return checkpoint;
}

void LevelwiseRun::Finish() {
  stats_.elapsed_millis = elapsed_base_ + timer_.ElapsedMillis();
  stats_.budget_exceeded = budget_.has_value() && budget_->exceeded();
}

}  // namespace pincer
