// Combined-pass Apriori: the pass-reduction technique the paper cites from
// Agrawal-Srikant [3] and Mannila-Toivonen-Verkamo [12] (§5), and the
// fallback §3.5 suggests for the adaptive variant ("we may simply count
// candidates of different sizes in one pass"). When the candidate set grows
// small enough, the next level's candidates are generated optimistically
// (treating the current candidates as frequent) and both levels are counted
// in a single database pass, halving the tail of the pass sequence. It is
// the same driver as AprioriMine (apriori/apriori.cc), which never combines.

#ifndef PINCER_APRIORI_APRIORI_COMBINED_H_
#define PINCER_APRIORI_APRIORI_COMBINED_H_

#include "apriori/apriori.h"

namespace pincer {

/// Options for the combined-pass variant.
struct CombinedPassOptions {
  /// Combine level k+1 into level k's pass whenever |C_k| is at most this
  /// many candidates. The optimistic C_{k+1} is a superset of the true one,
  /// so combining only pays when candidate sets are small (the paper: "only
  /// useful in the later passes").
  size_t combine_threshold = 5000;
};

/// Runs Apriori with combined passes. Produces exactly the same frequent
/// set as AprioriMine (property-tested) in at most — usually far fewer —
/// passes; reported candidate counts include the optimistic extras.
FrequentSetResult AprioriCombinedMine(const TransactionDatabase& db,
                                      const MiningOptions& options,
                                      const CombinedPassOptions& combined =
                                          CombinedPassOptions());

/// Resumes a combined-pass run from a level checkpoint (which carries the
/// optimistically pre-counted next level, so no pass is repeated). Same
/// staleness rules as AprioriResume; combine_threshold participates in the
/// options fingerprint because it changes the pass structure.
StatusOr<FrequentSetResult> AprioriCombinedResume(
    const TransactionDatabase& db, const MiningOptions& options,
    const Checkpoint& checkpoint,
    const CombinedPassOptions& combined = CombinedPassOptions());

}  // namespace pincer

#endif  // PINCER_APRIORI_APRIORI_COMBINED_H_
