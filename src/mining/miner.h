// High-level facade: pick an algorithm by name, mine the maximum frequent
// set or the full frequent set. This is the entry point examples and
// benchmarks use; the underlying drivers are in apriori/ and core/.

#ifndef PINCER_MINING_MINER_H_
#define PINCER_MINING_MINER_H_

#include <string>
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

/// The run identity the checkpoint layer stores and every entry point
/// compares: the fingerprint of the options `algorithm`'s driver actually
/// runs with. Applies MineMaximal's per-algorithm rewrites (kPincer zeroes
/// the MFCS cardinality cap, kPincerAdaptive fills the default caps in for
/// zeros) and the driver id (both pincer variants are "pincer";
/// apriori-combined adds the default combine threshold). The checkpoint
/// writers, the serve cache and the shard orchestrator all call this.
std::string OptionsFingerprint(const MiningOptions& options,
                               Algorithm algorithm);

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

/// ResumeMaximal from the checkpoint file a FileCheckpointSink wrote:
/// reads `checkpoint_path` and refuses (InvalidArgument) a checkpoint
/// stamped with a path or size other than `file`'s before resuming.
StatusOr<MaximalSetResult> ResumeMaximalFromFile(
    const TransactionDatabase& db, const MiningOptions& options,
    Algorithm algorithm, const DatabaseFingerprint& file,
    const std::string& checkpoint_path);

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
