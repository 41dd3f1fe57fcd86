// Reproduces Figure 4 of the paper: concentrated distributions — |L| = 50
// patterns, so frequent itemsets cluster and maximal frequent itemsets get
// long. This is the regime of the paper's headline results:
//  * T20.I6,  minsup 18%..11%: Pincer up to ~2.3x faster; at the 12%->11%
//    boundary the non-monotone MFS effect appears (Apriori passes grow,
//    Pincer passes shrink).
//  * T20.I10, minsup ~6%: ~23x faster (maximal itemsets up to 16 items).
//  * T20.I15, minsup 6-7%: >2 orders of magnitude; all maximal frequent
//    itemsets (up to 17 items) found in ~3 passes.
//
// The paper's exact minimum supports are used. At --scale=10 (|D| = 10K)
// the full sweep takes minutes; the T20.I15 rows at 6-7% are
// where Apriori explodes — exactly the paper's point.

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using pincer::bench::BenchConfig;
  using pincer::bench::ExperimentSpec;
  using pincer::bench::ParseBenchArgs;
  using pincer::bench::RunExperiment;

  // Figure 4 defaults to |D| = 100 (scale 1000): the T20.I15 rows at larger
  // subsample scales develop a "fat border" the paper's instance does not
  // have (see EXPERIMENTS.md) and the sweep degenerates into budget-bound
  // lower-bound rows. At this scale the paper's headline shape — orders of
  // magnitude, 3 passes — reproduces fully, with Apriori run to completion
  // under the default budget or reported as a lower bound.
  const BenchConfig config = ParseBenchArgs(argc, argv, 1000);

  pincer::QuestParams base;
  base.num_transactions = 100000;
  base.num_items = 1000;
  base.num_patterns = 50;  // |L| = 50: concentrated (§4.1.2)
  base.seed = 19980323;

  {
    ExperimentSpec spec;
    spec.title = "Figure 4, row 1 (T20.I6.D100K, |L|=50)";
    spec.quest = base;
    spec.quest.avg_transaction_size = 20;
    spec.quest.avg_pattern_size = 6;
    spec.min_supports = {0.18, 0.15, 0.12, 0.11};
    RunExperiment(spec, config);
  }
  {
    ExperimentSpec spec;
    spec.title = "Figure 4, row 2 (T20.I10.D100K, |L|=50)";
    spec.quest = base;
    spec.quest.avg_transaction_size = 20;
    spec.quest.avg_pattern_size = 10;
    spec.min_supports = {0.10, 0.08, 0.06};
    RunExperiment(spec, config);
  }
  {
    ExperimentSpec spec;
    spec.title = "Figure 4, row 3 (T20.I15.D100K, |L|=50)";
    spec.quest = base;
    spec.quest.avg_transaction_size = 20;
    spec.quest.avg_pattern_size = 15;
    spec.min_supports = {0.10, 0.08, 0.07, 0.06};
    RunExperiment(spec, config);
  }
  return 0;
}
