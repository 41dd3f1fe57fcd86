// High-level facade: pick an algorithm by name, mine the maximum frequent
// set or the full frequent set. This is the entry point examples and
// benchmarks use; the underlying drivers are in apriori/ and core/.

#ifndef PINCER_MINING_MINER_H_
#define PINCER_MINING_MINER_H_

#include <string_view>
#include <vector>

#include "apriori/apriori.h"
#include "apriori/apriori_combined.h"
#include "core/pincer_search.h"
#include "data/database.h"
#include "mining/options.h"
#include "util/statusor.h"

namespace pincer {

/// Mining algorithm selector.
enum class Algorithm {
  /// Bottom-up breadth-first baseline (Agrawal & Srikant).
  kApriori,
  /// Apriori with combined passes: two candidate levels counted per
  /// database read once the candidate sets are small — the pass-reduction
  /// technique of [3]/[12] the paper discusses in §3.5/§5.
  kAprioriCombined,
  /// Pure Pincer-Search: MFCS always maintained.
  kPincer,
  /// Adaptive Pincer-Search (§3.5): abandons the MFCS when it fragments
  /// past a cardinality cap. This is the variant the paper evaluates.
  kPincerAdaptive,
};

inline constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kApriori, Algorithm::kAprioriCombined, Algorithm::kPincer,
    Algorithm::kPincerAdaptive};

std::string_view AlgorithmName(Algorithm algorithm);

/// Parses any AlgorithmName; returns InvalidArgument otherwise.
StatusOr<Algorithm> ParseAlgorithm(std::string_view name);

/// Default MFCS cap applied by kPincerAdaptive when
/// options.mfcs_cardinality_limit is 0. Chosen so that the per-pass cost of
/// counting MFCS elements and running MFCS-gen stays small relative to
/// candidate counting; past this fragmentation the MFCS rarely recovers
/// (the paper's "may not be worthwhile to maintain the MFCS" regime, §3.5).
inline constexpr size_t kDefaultMfcsCardinalityLimit = 10000;

/// Default MFCS-gen work cap (element-scan steps per update) applied by
/// kPincerAdaptive when options.mfcs_work_limit is 0.
inline constexpr size_t kDefaultMfcsWorkLimit = 20'000'000;

/// The per-algorithm option rewrites MineMaximal applies before mining:
/// kPincer zeroes the MFCS cardinality cap (pure Pincer-Search), and
/// kPincerAdaptive fills the default caps in for zeros. Exposed so every
/// layer that fingerprints options (the serve cache, the checkpoint
/// writers, the shard orchestrator) fingerprints what the driver actually
/// runs with.
MiningOptions EffectiveMiningOptions(MiningOptions options,
                                     Algorithm algorithm);

/// Checkpoint-layer driver id: both pincer variants share "pincer" (the
/// pure/adaptive distinction lives in the options fingerprint).
std::string_view CheckpointAlgorithmId(Algorithm algorithm);

/// The combine threshold that participates in the options fingerprint:
/// MineMaximal mines apriori-combined with the default CombinedPassOptions;
/// every other algorithm keeps the fingerprint's combine-threshold clause
/// absent (0).
size_t CheckpointCombineThreshold(Algorithm algorithm);

/// Mines the maximum frequent set with the chosen algorithm. For kApriori
/// the full frequent set is mined bottom-up and maximal elements are
/// extracted afterwards (what a baseline user would have to do); the stats
/// reflect the full run.
MaximalSetResult MineMaximal(const TransactionDatabase& db,
                             const MiningOptions& options,
                             Algorithm algorithm);

/// Resumes a MineMaximal run from a pass-level checkpoint written by a
/// previous run's options.checkpoint_sink. Applies the same per-algorithm
/// option rewrites as MineMaximal before validating the checkpoint's
/// options fingerprint, so a run started through MineMaximal resumes with
/// identical effective options. The resumed result's MFS, supports, and
/// cumulative structural stats are bit-identical to the uninterrupted
/// run's. Returns InvalidArgument for a stale checkpoint (different
/// algorithm, options, or database) — never silently reuses one.
StatusOr<MaximalSetResult> ResumeMaximal(const TransactionDatabase& db,
                                         const MiningOptions& options,
                                         Algorithm algorithm,
                                         const Checkpoint& checkpoint);

/// Mines the complete frequent set (Apriori). Provided for rule generation
/// over all itemsets.
FrequentSetResult MineFrequent(const TransactionDatabase& db,
                               const MiningOptions& options);

/// Expands a maximal-set result into the complete frequent set by
/// enumerating subsets of the MFS elements and counting their supports in
/// `db` (one extra conceptual pass, as §2.1 suggests: "one can easily
/// generate the required subsets and count their supports by reading the
/// database once"). Sorted lexicographically.
std::vector<FrequentItemset> ExpandToFrequentSet(
    const TransactionDatabase& db, const MaximalSetResult& maximal,
    const MiningOptions& options);

}  // namespace pincer

#endif  // PINCER_MINING_MINER_H_
