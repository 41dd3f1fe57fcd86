// The run scaffolding shared by the level-wise miners: Apriori and its
// combined-pass variant (apriori/apriori.cc) and Pincer-Search
// (core/pincer_search.cc). Pincer-Search is Apriori's level-wise loop plus
// MFCS maintenance (§3.2, §3.5), and its adaptive variant degenerates to
// plain Apriori once the MFCS is dropped, so the drivers differ only in
// what they do with each pass's counts. Everything around that — the
// worker pool and counting backend, the metrics sink and time budget,
// counting passes 1 and 2, the timed backend call with its abort latch,
// the between-pass stop rule, the stats bookkeeping, the checkpoint header
// and the end-of-run accounting — lives here and is decided once.

#ifndef PINCER_MINING_LEVELWISE_RUN_H_
#define PINCER_MINING_LEVELWISE_RUN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "counting/array_counters.h"
#include "counting/scan_budget.h"
#include "counting/support_counter.h"
#include "data/database.h"
#include "mining/checkpoint.h"
#include "mining/mining_stats.h"
#include "mining/options.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace pincer {

/// One mining run's shared state. A driver constructs it first, optionally
/// calls Restore(), runs its passes through the counting and stop-rule
/// methods, and calls Finish() before returning its result.
class LevelwiseRun {
 public:
  /// Resolves the pool (options.shared_pool, or one owned for this run)
  /// and the counter (options.resident_counter, or one of options.backend
  /// built on that pool), then attaches the metrics sink (when
  /// options.collect_counter_metrics) and the scan budget (when
  /// options.time_budget_ms > 0). `algorithm` is the checkpoint id; with
  /// `combine_threshold` it keys the options fingerprint. `stats` is the
  /// driver's result stats; it must outlive the run.
  LevelwiseRun(const TransactionDatabase& db, const MiningOptions& options,
               std::string_view algorithm, MiningStats& stats,
               size_t combine_threshold = 0);

  /// A resident counter outlives the run: the destructor detaches the
  /// per-run sinks, on every exit path.
  ~LevelwiseRun();

  LevelwiseRun(const LevelwiseRun&) = delete;
  LevelwiseRun& operator=(const LevelwiseRun&) = delete;

  /// Resume header: rejects a checkpoint whose algorithm, options
  /// fingerprint or database shape does not match this run
  /// (InvalidArgument), then restores the cumulative stats and adds the
  /// checkpointed wall clock to this run's. The driver restores its own
  /// state and resumes at checkpoint.next_pass.
  Status Restore(const Checkpoint& checkpoint);

  uint64_t min_count() const { return min_count_; }
  ThreadPool* pool() const { return pool_; }

  /// Pass 1: the support of every item, by the §4.1.1 singleton array when
  /// options.use_array_fast_path, else by the backend. Sets the pass's
  /// num_candidates, counting_ms and (backend path) backend_used.
  std::vector<uint64_t> CountItems(PassStats& pass);

  /// Pass 2: the support of every pair of the items of `singletons` (L_1,
  /// sorted), by the §4.1.1 triangular array when
  /// options.use_array_fast_path, else by the backend — either way returned
  /// as a PairCountMatrix. Sets num_candidates, counting_ms, backend_used.
  PairCountMatrix CountPairs(const std::vector<Itemset>& singletons,
                             PassStats& pass);

  /// One timed backend call, adding to pass.counting_ms and recording
  /// pass.backend_used.
  std::vector<uint64_t> Count(const std::vector<Itemset>& batch,
                              PassStats& pass);

  /// True once the run is stopped short: a counting scan ran out of time
  /// (the counts it returned are partial and must be discarded) or the stop
  /// rule truncated it. Drivers test it after every counting call.
  bool aborted() const { return stats_.aborted; }

  /// The between-pass stop rule, in one order: the termination test
  /// (`work_remains` false — a complete run), then the pass cap (completed
  /// database passes reached options.max_passes, or |items| + 2 when it is
  /// 0), then, from pass 3 on, the time budget. Returns true when pass
  /// `pass` must not run; a cap or budget stop marks the run aborted. The
  /// budget is polled after generation, whose cost no scan sees; passes 1
  /// and 2 generate nothing and their scans poll the budget themselves.
  bool StopBeforePass(size_t pass, bool work_remains);

  /// Books a completed pass: the pass count, the candidate totals (passes
  /// 1-2 are excluded from reported_candidates per §4.1.1; MFCS elements
  /// count everywhere) and the per-pass record.
  void RecordPass(PassStats pass);

  /// Hands options.checkpoint_sink a snapshot for resuming at `next_pass`:
  /// the common header (algorithm, next_pass, fingerprint, database shape,
  /// stats, cumulative elapsed) plus whatever `fill(checkpoint)` adds. A
  /// no-op without a sink; a failing sink is logged once per run.
  template <typename Fill>
  void EmitCheckpoint(size_t next_pass, Fill&& fill) {
    if (!options_.checkpoint_sink) return;
    Checkpoint checkpoint = CheckpointHeader(next_pass);
    fill(checkpoint);
    DeliverCheckpoint(options_, checkpoint, sink_error_logged_);
  }

  /// Closes the stats: cumulative elapsed time and budget_exceeded, which
  /// is the ScanBudget latch — every budget abort latches it, so it is the
  /// single source of truth for "the time budget caused this".
  void Finish();

 private:
  ScanBudget* budget() { return budget_.has_value() ? &*budget_ : nullptr; }
  // The abort latch, run after every scan: a scan that stopped at the
  // deadline stops the run.
  void LatchScanAbort() {
    if (budget_.has_value() && budget_->exceeded()) stats_.aborted = true;
  }
  Checkpoint CheckpointHeader(size_t next_pass) const;
  // Built on demand: only checkpoints and resumes need it.
  std::string Fingerprint() const {
    return OptionsFingerprint(options_, algorithm_, combine_threshold_);
  }

  const TransactionDatabase& db_;
  const MiningOptions& options_;
  const std::string algorithm_;
  const size_t combine_threshold_;
  MiningStats& stats_;
  const uint64_t min_count_;
  const size_t max_passes_;
  Timer timer_;
  // Wall clock of the checkpointed work a resumed run continues.
  double elapsed_base_ = 0;
  bool sink_error_logged_ = false;
  // Declared before the counter, which polls the budget and runs its scans
  // on the pool.
  std::optional<ScanBudget> budget_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_;
  std::unique_ptr<SupportCounter> owned_counter_;
  SupportCounter* counter_;
};

}  // namespace pincer

#endif  // PINCER_MINING_LEVELWISE_RUN_H_
