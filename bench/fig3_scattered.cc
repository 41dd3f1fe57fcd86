// Reproduces Figure 3 of the paper: relative time, candidates, and passes of
// Apriori vs (adaptive) Pincer-Search on scattered-distribution databases —
// |L| = 2000 potentially-maximal patterns, N = 1000 items, |D| = 100K
// transactions (divide with --scale, default 1/10).
//
// Paper shapes to look for:
//  * T5.I2: Pincer uses MORE candidates (MFCS overhead exceeds pruning on
//    short patterns) yet stays at least comparable on time via fewer passes.
//  * T10.I4: modest Pincer wins, best around minsup 0.5% (paper: 1.7x);
//    around 0.75% the two may tie or Apriori may edge ahead slightly.
//  * T20.I6: moderate wins from pass reduction.

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using pincer::bench::BenchConfig;
  using pincer::bench::ExperimentSpec;
  using pincer::bench::ParseBenchArgs;
  using pincer::bench::RunExperiment;

  const BenchConfig config = ParseBenchArgs(argc, argv, 10);

  pincer::QuestParams base;
  base.num_transactions = 100000;
  base.num_items = 1000;
  base.num_patterns = 2000;  // |L| = 2000: scattered (§4.1.2)
  base.seed = 19980323;

  {
    ExperimentSpec spec;
    spec.title = "Figure 3, row 1 (T5.I2.D100K)";
    spec.quest = base;
    spec.quest.avg_transaction_size = 5;
    spec.quest.avg_pattern_size = 2;
    spec.min_supports = {0.0100, 0.0075, 0.0050, 0.0033, 0.0025};
    RunExperiment(spec, config);
  }
  {
    ExperimentSpec spec;
    spec.title = "Figure 3, row 2 (T10.I4.D100K)";
    spec.quest = base;
    spec.quest.avg_transaction_size = 10;
    spec.quest.avg_pattern_size = 4;
    spec.min_supports = {0.0150, 0.0100, 0.0075, 0.0050};
    RunExperiment(spec, config);
  }
  {
    ExperimentSpec spec;
    spec.title = "Figure 3, row 3 (T20.I6.D100K)";
    spec.quest = base;
    spec.quest.avg_transaction_size = 20;
    spec.quest.avg_pattern_size = 6;
    spec.min_supports = {0.0200, 0.0150, 0.0100};
    RunExperiment(spec, config);
  }
  return 0;
}
