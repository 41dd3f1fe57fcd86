// Tests for LevelwiseRun, the run skeleton the Apriori, combined and
// Pincer drivers share: the order of the between-pass stop rule, the
// pass-1/2 counting paths, the stats bookkeeping, the checkpoint header,
// resume validation, and detaching from a resident counter.

#include "mining/levelwise_run.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "counting/counter_factory.h"
#include "testing/db_builder.h"

namespace pincer {
namespace {

TransactionDatabase SmallDb() {
  return MakeDatabase({{0, 1, 2}, {0, 1}, {1, 2}, {0, 2}, {0, 1, 2, 3}});
}

TEST(LevelwiseRun, TerminationTestComesBeforeCapAndBudget) {
  const TransactionDatabase db = SmallDb();
  MiningOptions options;
  options.max_passes = 1;
  options.time_budget_ms = 1e-9;
  MiningStats stats;
  LevelwiseRun run(db, options, "apriori", stats);
  stats.passes = 5;  // past the cap
  // No work left: the run is complete, whatever the cap and the clock say.
  EXPECT_TRUE(run.StopBeforePass(3, /*work_remains=*/false));
  EXPECT_FALSE(run.aborted());
  run.Finish();
  EXPECT_FALSE(stats.budget_exceeded);
}

TEST(LevelwiseRun, PassCapComesBeforeBudget) {
  const TransactionDatabase db = SmallDb();
  MiningOptions options;
  options.max_passes = 2;
  options.time_budget_ms = 1e-9;
  MiningStats stats;
  LevelwiseRun run(db, options, "apriori", stats);
  stats.passes = 2;
  EXPECT_TRUE(run.StopBeforePass(3, /*work_remains=*/true));
  EXPECT_TRUE(run.aborted());
  run.Finish();
  // The cap stopped the run before the budget was polled.
  EXPECT_FALSE(stats.budget_exceeded);
}

TEST(LevelwiseRun, BudgetIsPolledFromPassThreeOn) {
  const TransactionDatabase db = SmallDb();
  MiningOptions options;
  options.time_budget_ms = 1e-9;
  MiningStats stats;
  LevelwiseRun run(db, options, "apriori", stats);
  EXPECT_FALSE(run.StopBeforePass(1, /*work_remains=*/true));
  EXPECT_FALSE(run.StopBeforePass(2, /*work_remains=*/true));
  EXPECT_FALSE(run.aborted());
  EXPECT_TRUE(run.StopBeforePass(3, /*work_remains=*/true));
  EXPECT_TRUE(run.aborted());
  run.Finish();
  EXPECT_TRUE(stats.budget_exceeded);
}

TEST(LevelwiseRun, AutomaticCapIsItemsPlusTwo) {
  const TransactionDatabase db = SmallDb();  // 4 items
  MiningOptions options;
  MiningStats stats;
  LevelwiseRun run(db, options, "pincer", stats);
  stats.passes = 5;
  EXPECT_FALSE(run.StopBeforePass(6, /*work_remains=*/true));
  stats.passes = 6;
  EXPECT_TRUE(run.StopBeforePass(7, /*work_remains=*/true));
  EXPECT_TRUE(run.aborted());
}

TEST(LevelwiseRun, FastAndBackendPassesOneAndTwoAgree) {
  const TransactionDatabase db = SmallDb();
  for (CounterBackend backend : AllCounterBackends()) {
    MiningOptions fast;
    fast.backend = backend;
    MiningOptions generic = fast;
    generic.use_array_fast_path = false;
    MiningStats fast_stats;
    MiningStats generic_stats;
    LevelwiseRun fast_run(db, fast, "apriori", fast_stats);
    LevelwiseRun generic_run(db, generic, "apriori", generic_stats);

    PassStats fast_one;
    PassStats generic_one;
    EXPECT_EQ(fast_run.CountItems(fast_one),
              generic_run.CountItems(generic_one));
    EXPECT_EQ(fast_one.num_candidates, 4u);
    EXPECT_EQ(generic_one.num_candidates, 4u);
    EXPECT_EQ(fast_one.backend_used, "array");
    EXPECT_NE(generic_one.backend_used, "array");

    const std::vector<Itemset> l1 = {Itemset{0}, Itemset{1}, Itemset{2}};
    PassStats fast_two;
    PassStats generic_two;
    const PairCountMatrix fast_pairs = fast_run.CountPairs(l1, fast_two);
    const PairCountMatrix generic_pairs =
        generic_run.CountPairs(l1, generic_two);
    EXPECT_EQ(fast_pairs.raw_counts(), generic_pairs.raw_counts())
        << CounterBackendName(backend);
    EXPECT_EQ(fast_two.num_candidates, 3u);
    EXPECT_EQ(generic_two.num_candidates, 3u);

    // ForEachPair walks the packed order: {0,1}, {0,2}, {1,2}.
    std::vector<uint64_t> walked;
    generic_pairs.ForEachPair([&](ItemId a, ItemId b, uint64_t count) {
      EXPECT_EQ(count, db.CountSupport(Itemset{a, b}));
      walked.push_back(count);
    });
    EXPECT_EQ(walked, (std::vector<uint64_t>{3, 3, 3}));
  }
}

TEST(LevelwiseRun, RecordPassKeepsTheCandidateAccounting) {
  const TransactionDatabase db = SmallDb();
  MiningOptions options;
  MiningStats stats;
  LevelwiseRun run(db, options, "pincer", stats);
  for (size_t k = 1; k <= 3; ++k) {
    PassStats pass;
    pass.pass = k;
    pass.num_candidates = 10 * k;
    pass.num_mfcs_candidates = 1;
    run.RecordPass(pass);
  }
  EXPECT_EQ(stats.passes, 3u);
  EXPECT_EQ(stats.total_candidates, 10u + 20u + 30u + 3u);
  // §4.1.1: passes 1-2 are not reported; MFCS elements always are.
  EXPECT_EQ(stats.reported_candidates, 30u + 3u);
  EXPECT_EQ(stats.mfcs_candidates, 3u);
  ASSERT_EQ(stats.per_pass.size(), 3u);
  EXPECT_EQ(stats.per_pass[2].num_candidates, 30u);
}

TEST(LevelwiseRun, CheckpointHeaderRoundTripsThroughRestore) {
  const TransactionDatabase db = SmallDb();
  MiningOptions options;
  std::vector<Checkpoint> delivered;
  options.checkpoint_sink = [&](const Checkpoint& checkpoint) {
    delivered.push_back(checkpoint);
    return Status::OK();
  };
  MiningStats stats;
  {
    LevelwiseRun run(db, options, "apriori-combined", stats,
                     /*combine_threshold=*/7);
    PassStats pass;
    pass.pass = 1;
    pass.num_candidates = 4;
    run.RecordPass(pass);
    run.EmitCheckpoint(2, [](Checkpoint& checkpoint) {
      checkpoint.live_candidates = {Itemset{0}};
    });
  }
  ASSERT_EQ(delivered.size(), 1u);
  const Checkpoint& checkpoint = delivered[0];
  EXPECT_EQ(checkpoint.algorithm, "apriori-combined");
  EXPECT_EQ(checkpoint.next_pass, 2u);
  EXPECT_EQ(checkpoint.options_fingerprint,
            OptionsFingerprint(options, "apriori-combined", 7));
  EXPECT_EQ(checkpoint.database.rows, db.size());
  EXPECT_EQ(checkpoint.database.items, db.num_items());
  EXPECT_EQ(checkpoint.stats.passes, 1u);
  EXPECT_EQ(checkpoint.live_candidates, (std::vector<Itemset>{Itemset{0}}));

  MiningStats resumed;
  LevelwiseRun run(db, options, "apriori-combined", resumed, 7);
  ASSERT_TRUE(run.Restore(checkpoint).ok());
  EXPECT_EQ(resumed.passes, 1u);
  EXPECT_EQ(resumed.total_candidates, 4u);

  MiningStats other;
  LevelwiseRun other_threshold(db, options, "apriori-combined", other, 8);
  EXPECT_FALSE(other_threshold.Restore(checkpoint).ok());
  MiningOptions stricter = options;
  stricter.min_support = 0.5;
  LevelwiseRun other_options(db, stricter, "apriori-combined", other, 7);
  EXPECT_FALSE(other_options.Restore(checkpoint).ok());
  LevelwiseRun wrong_algorithm(db, options, "pincer", other);
  EXPECT_FALSE(wrong_algorithm.Restore(checkpoint).ok());
}

// A resident counter that remembers which sinks are attached.
class ProbeCounter : public SupportCounter {
 public:
  explicit ProbeCounter(const TransactionDatabase& db)
      : inner_(CreateCounter(CounterBackend::kTrie, db)) {}
  std::vector<uint64_t> CountSupports(
      const std::vector<Itemset>& candidates) override {
    return inner_->CountSupports(candidates);
  }
  CounterBackend backend() const override { return CounterBackend::kTrie; }
  void set_metrics(CountingMetrics* metrics) override {
    SupportCounter::set_metrics(metrics);
    inner_->set_metrics(metrics);
  }
  CountingMetrics* metrics() const { return metrics_; }
  ScanBudget* budget() const { return budget_; }

 private:
  std::unique_ptr<SupportCounter> inner_;
};

TEST(LevelwiseRun, DetachesAResidentCounterOnEveryExit) {
  const TransactionDatabase db = SmallDb();
  ProbeCounter counter(db);
  MiningOptions options;
  options.resident_counter = &counter;
  options.collect_counter_metrics = true;
  options.time_budget_ms = 60000;
  MiningStats stats;
  {
    LevelwiseRun run(db, options, "apriori", stats);
    EXPECT_EQ(counter.metrics(), &stats.counting);
    EXPECT_NE(counter.budget(), nullptr);
    PassStats pass;
    run.Count({Itemset{0, 1}}, pass);
    EXPECT_EQ(stats.counting.count_calls, 1u);
    EXPECT_EQ(pass.backend_used, "trie");
  }
  EXPECT_EQ(counter.metrics(), nullptr);
  EXPECT_EQ(counter.budget(), nullptr);

  // A resume that fails validation returns early; the sinks still go.
  Checkpoint stale;
  stale.algorithm = "pincer";
  stale.next_pass = 2;
  {
    LevelwiseRun run(db, options, "apriori", stats);
    EXPECT_FALSE(run.Restore(stale).ok());
  }
  EXPECT_EQ(counter.metrics(), nullptr);
  EXPECT_EQ(counter.budget(), nullptr);
}

}  // namespace
}  // namespace pincer
