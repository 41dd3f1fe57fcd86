#include "mining/miner.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "counting/counter_factory.h"
#include "itemset/itemset_set.h"
#include "mining/checkpoint.h"
#include "util/thread_pool.h"

namespace pincer {

std::string_view AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kApriori:
      return "apriori";
    case Algorithm::kAprioriCombined:
      return "apriori-combined";
    case Algorithm::kPincer:
      return "pincer";
    case Algorithm::kPincerAdaptive:
      return "pincer-adaptive";
  }
  return "unknown";
}

StatusOr<Algorithm> ParseAlgorithm(std::string_view name) {
  if (name == "apriori") return Algorithm::kApriori;
  if (name == "apriori-combined") return Algorithm::kAprioriCombined;
  if (name == "pincer") return Algorithm::kPincer;
  if (name == "pincer-adaptive") return Algorithm::kPincerAdaptive;
  return Status::InvalidArgument("unknown algorithm: " + std::string(name));
}

namespace {

// The per-algorithm option rewrites MineMaximal applies before mining:
// kPincer zeroes the MFCS cardinality cap (pure Pincer-Search), and
// kPincerAdaptive fills the default caps in for zeros.
MiningOptions EffectiveMiningOptions(MiningOptions options,
                                     Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kApriori:
    case Algorithm::kAprioriCombined:
      break;
    case Algorithm::kPincer:
      options.mfcs_cardinality_limit = 0;
      break;
    case Algorithm::kPincerAdaptive:
      if (options.mfcs_cardinality_limit == 0) {
        options.mfcs_cardinality_limit = kDefaultMfcsCardinalityLimit;
      }
      if (options.mfcs_work_limit == 0) {
        options.mfcs_work_limit = kDefaultMfcsWorkLimit;
      }
      break;
  }
  return options;
}

// A bottom-up run's answer as a maximal-set result: the MFS extracted from
// the frequent set, with the run's stats (or the resume error).
MaximalSetResult ToMaximal(FrequentSetResult full) {
  MaximalSetResult result;
  result.mfs = full.MaximalItemsets();
  result.stats = std::move(full.stats);
  return result;
}

StatusOr<MaximalSetResult> ToMaximal(StatusOr<FrequentSetResult> full) {
  if (!full.ok()) return full.status();
  return ToMaximal(std::move(full).value());
}

}  // namespace

std::string OptionsFingerprint(const MiningOptions& options,
                               Algorithm algorithm) {
  const MiningOptions effective = EffectiveMiningOptions(options, algorithm);
  switch (algorithm) {
    case Algorithm::kApriori:
      return OptionsFingerprint(effective, "apriori");
    case Algorithm::kAprioriCombined:
      // MineMaximal mines apriori-combined with the default threshold.
      return OptionsFingerprint(effective, "apriori-combined",
                                CombinedPassOptions().combine_threshold);
    case Algorithm::kPincer:
    case Algorithm::kPincerAdaptive:
      // The pure/adaptive distinction lives in the rewritten MFCS caps.
      return OptionsFingerprint(effective, "pincer");
  }
  return "unknown";
}

MaximalSetResult MineMaximal(const TransactionDatabase& db,
                             const MiningOptions& options,
                             Algorithm algorithm) {
  const MiningOptions effective = EffectiveMiningOptions(options, algorithm);
  switch (algorithm) {
    case Algorithm::kApriori:
      return ToMaximal(AprioriMine(db, effective));
    case Algorithm::kAprioriCombined:
      return ToMaximal(AprioriCombinedMine(db, effective));
    case Algorithm::kPincer:
    case Algorithm::kPincerAdaptive:
      return PincerSearch(db, effective);
  }
  return MaximalSetResult{};
}

StatusOr<MaximalSetResult> ResumeMaximal(const TransactionDatabase& db,
                                         const MiningOptions& options,
                                         Algorithm algorithm,
                                         const Checkpoint& checkpoint) {
  const MiningOptions effective = EffectiveMiningOptions(options, algorithm);
  switch (algorithm) {
    case Algorithm::kApriori:
      return ToMaximal(AprioriResume(db, effective, checkpoint));
    case Algorithm::kAprioriCombined:
      return ToMaximal(AprioriCombinedResume(db, effective, checkpoint));
    case Algorithm::kPincer:
    case Algorithm::kPincerAdaptive:
      return PincerResume(db, effective, checkpoint);
  }
  return Status::InvalidArgument("unknown algorithm");
}

StatusOr<MaximalSetResult> ResumeMaximalFromFile(
    const TransactionDatabase& db, const MiningOptions& options,
    Algorithm algorithm, const DatabaseFingerprint& file,
    const std::string& checkpoint_path) {
  const StatusOr<Checkpoint> checkpoint =
      ReadCheckpointFromFile(checkpoint_path);
  if (!checkpoint.ok()) return checkpoint.status();
  const DatabaseFingerprint& stamped = checkpoint->database;
  if (!stamped.path.empty() && (stamped.path != file.path ||
                                stamped.file_bytes != file.file_bytes)) {
    return Status::InvalidArgument(
        "checkpoint was written for " + stamped.path + " (" +
        std::to_string(stamped.file_bytes) + " bytes), not " + file.path +
        " (" + std::to_string(file.file_bytes) + " bytes)");
  }
  return ResumeMaximal(db, options, algorithm, *checkpoint);
}

FrequentSetResult MineFrequent(const TransactionDatabase& db,
                               const MiningOptions& options) {
  return AprioriMine(db, options);
}

std::vector<FrequentItemset> ExpandToFrequentSet(
    const TransactionDatabase& db, const MaximalSetResult& maximal,
    const MiningOptions& options) {
  // Enumerate all distinct non-empty subsets of MFS elements.
  std::unordered_set<Itemset, ItemsetHash> seen;
  std::vector<Itemset> subsets;
  for (const FrequentItemset& element : maximal.mfs) {
    for (size_t k = 1; k <= element.itemset.size(); ++k) {
      for (Itemset& subset : element.itemset.SubsetsOfSize(k)) {
        if (seen.insert(subset).second) subsets.push_back(std::move(subset));
      }
    }
  }
  // One batch count over the database.
  ThreadPool pool(options.num_threads);
  auto counter = CreateCounter(options.backend, db, &pool);
  const std::vector<uint64_t> counts = counter->CountSupports(subsets);

  std::vector<FrequentItemset> frequent;
  frequent.reserve(subsets.size());
  for (size_t i = 0; i < subsets.size(); ++i) {
    frequent.push_back({subsets[i], counts[i]});
  }
  std::sort(frequent.begin(), frequent.end());
  return frequent;
}

}  // namespace pincer
