#include "mining/miner.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "counting/counter_factory.h"
#include "itemset/itemset_set.h"
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

std::string_view CheckpointAlgorithmId(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kApriori:
      return "apriori";
    case Algorithm::kAprioriCombined:
      return "apriori-combined";
    case Algorithm::kPincer:
    case Algorithm::kPincerAdaptive:
      return "pincer";
  }
  return "unknown";
}

size_t CheckpointCombineThreshold(Algorithm algorithm) {
  return algorithm == Algorithm::kAprioriCombined
             ? CombinedPassOptions().combine_threshold
             : 0;
}

namespace {

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
