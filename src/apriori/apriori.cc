#include "apriori/apriori.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "apriori/apriori_combined.h"
#include "apriori/apriori_gen.h"
#include "mining/levelwise_run.h"
#include "util/contracts.h"
#include "util/metrics.h"

namespace pincer {

std::vector<FrequentItemset> FrequentSetResult::MaximalItemsets() const {
  // `frequent` is downward closed, so an itemset is maximal exactly when no
  // frequent itemset one item larger contains it: strike the one-smaller
  // subsets of every itemset and keep the rest. Linear in the total itemset
  // length, where a pairwise scan is quadratic in the MFS size.
  std::unordered_map<Itemset, size_t, ItemsetHash> position;
  position.reserve(frequent.size());
  for (size_t i = 0; i < frequent.size(); ++i) {
    position.emplace(frequent[i].itemset, i);
  }
  std::vector<bool> maximal(frequent.size(), true);
  for (const FrequentItemset& fi : frequent) {
    if (fi.itemset.size() < 2) continue;
    for (const ItemId item : fi.itemset) {
      const auto subset = position.find(fi.itemset.WithoutItem(item));
      PINCER_CHECK(subset != position.end(),
                   "frequent set is not downward closed at ",
                   fi.itemset.ToString());
      if (subset != position.end()) maximal[subset->second] = false;
    }
  }
  std::vector<FrequentItemset> result;
  for (size_t i = 0; i < frequent.size(); ++i) {
    if (maximal[i]) result.push_back(frequent[i]);
  }
  std::sort(result.begin(), result.end());
  return result;
}

namespace {

// Optimistically pre-counted next-level candidates, sorted by itemset.
using Precounts = std::vector<std::pair<Itemset, uint64_t>>;

// The counts of `candidates` if the previous pass counted every one of them
// optimistically, else empty. Consumes the precounts either way.
std::vector<uint64_t> TakePrecounts(const std::vector<Itemset>& candidates,
                                    Precounts& precounted) {
  std::vector<uint64_t> counts;
  if (precounted.empty() || candidates.empty()) return counts;
  counts.reserve(candidates.size());
  for (const Itemset& candidate : candidates) {
    auto it = std::lower_bound(precounted.begin(), precounted.end(), candidate,
                               [](const auto& entry, const Itemset& value) {
                                 return entry.first < value;
                               });
    if (it == precounted.end() || it->first != candidate) {
      counts.clear();
      break;
    }
    counts.push_back(it->second);
  }
  precounted.clear();
  return counts;
}

// The level-wise frequent-set loop: Apriori's frequent-set filter over the
// shared run skeleton. A positive `combine_threshold` gives the
// combined-pass variant: whenever |C_k| is at most the threshold, C_{k+1}
// is generated optimistically from C_k and counted in the same pass, and
// the next level is then served from those counts without a database read.
// `resume` null mines from scratch; otherwise the run continues from the
// checkpoint. Pass bookkeeping happens only after a pass's counting scan
// completes, so a scan aborted by the time budget leaves no trace.
StatusOr<FrequentSetResult> FrequentSetRun(const TransactionDatabase& db,
                                           const MiningOptions& options,
                                           std::string_view algorithm,
                                           size_t combine_threshold,
                                           const Checkpoint* resume) {
  FrequentSetResult result;
  LevelwiseRun run(db, options, algorithm, result.stats, combine_threshold);
  // `lk` is the current level: frequent 1-itemsets after pass 1, then L_k.
  std::vector<Itemset> lk;
  Precounts precounted;
  size_t k = 1;
  if (resume != nullptr) {
    PINCER_RETURN_IF_ERROR(run.Restore(*resume));
    result.frequent = resume->frequent;
    lk = resume->live_candidates;
    for (const FrequentItemset& fi : resume->precounted) {
      precounted.emplace_back(fi.itemset, fi.support);
    }
    k = static_cast<size_t>(resume->next_pass);
  }
  const uint64_t min_count = run.min_count();

  for (;; ++k) {
    PassStats pass;
    pass.pass = k;
    std::vector<Itemset> next;
    const auto add_frequent = [&](const Itemset& itemset, uint64_t count) {
      next.push_back(itemset);
      result.frequent.push_back({itemset, count});
    };
    bool scanned = true;
    if (k == 1) {
      const std::vector<uint64_t> counts = run.CountItems(pass);
      if (run.aborted()) break;
      for (ItemId item = 0; item < db.num_items(); ++item) {
        if (counts[item] >= min_count) {
          add_frequent(Itemset{item}, counts[item]);
        }
      }
    } else if (k == 2) {
      // No generation step: C_2 is every pair of frequent items.
      if (run.StopBeforePass(k, lk.size() >= 2)) break;
      const PairCountMatrix pairs = run.CountPairs(lk, pass);
      if (run.aborted()) break;
      pairs.ForEachPair([&](ItemId a, ItemId b, uint64_t count) {
        if (count >= min_count) add_frequent(Itemset{a, b}, count);
      });
    } else {
      std::vector<Itemset> candidates;
      {
        ScopedMsTimer gen_timer(pass.candidate_gen_ms);
        candidates = AprioriGen(lk);
      }
      std::vector<uint64_t> counts = TakePrecounts(candidates, precounted);
      scanned = counts.empty();
      if (scanned) {
        if (run.StopBeforePass(k, !candidates.empty())) break;
        std::vector<Itemset> optimistic;
        if (candidates.size() <= combine_threshold) {
          ScopedMsTimer gen_timer(pass.candidate_gen_ms);
          optimistic = AprioriGen(candidates);
        }
        // One scan counts C_k and the optimistic C_{k+1} behind it.
        const size_t level_size = candidates.size();
        candidates.insert(candidates.end(),
                          std::make_move_iterator(optimistic.begin()),
                          std::make_move_iterator(optimistic.end()));
        pass.num_candidates = candidates.size();
        counts = run.Count(candidates, pass);
        if (run.aborted()) break;
        // AprioriGen output is sorted, so the precounts are too.
        for (size_t i = level_size; i < candidates.size(); ++i) {
          precounted.emplace_back(std::move(candidates[i]), counts[i]);
        }
        candidates.resize(level_size);
        counts.resize(level_size);
      }
      for (size_t i = 0; i < candidates.size(); ++i) {
        if (counts[i] >= min_count) add_frequent(candidates[i], counts[i]);
      }
    }
    if (scanned) {
      pass.num_frequent = next.size();
      run.RecordPass(std::move(pass));
    }
    lk = std::move(next);
    run.EmitCheckpoint(k + 1, [&](Checkpoint& checkpoint) {
      checkpoint.frequent = result.frequent;
      checkpoint.live_candidates = lk;
      for (const auto& [itemset, count] : precounted) {
        checkpoint.precounted.push_back({itemset, count});
      }
    });
  }

  run.Finish();
  std::sort(result.frequent.begin(), result.frequent.end());
  return result;
}

}  // namespace

FrequentSetResult AprioriMine(const TransactionDatabase& db,
                              const MiningOptions& options) {
  return FrequentSetRun(db, options, "apriori", /*combine_threshold=*/0,
                        /*resume=*/nullptr)
      .value();
}

StatusOr<FrequentSetResult> AprioriResume(const TransactionDatabase& db,
                                          const MiningOptions& options,
                                          const Checkpoint& checkpoint) {
  return FrequentSetRun(db, options, "apriori", /*combine_threshold=*/0,
                        &checkpoint);
}

FrequentSetResult AprioriCombinedMine(const TransactionDatabase& db,
                                      const MiningOptions& options,
                                      const CombinedPassOptions& combined) {
  return FrequentSetRun(db, options, "apriori-combined",
                        combined.combine_threshold, /*resume=*/nullptr)
      .value();
}

StatusOr<FrequentSetResult> AprioriCombinedResume(
    const TransactionDatabase& db, const MiningOptions& options,
    const Checkpoint& checkpoint, const CombinedPassOptions& combined) {
  return FrequentSetRun(db, options, "apriori-combined",
                        combined.combine_threshold, &checkpoint);
}

}  // namespace pincer
