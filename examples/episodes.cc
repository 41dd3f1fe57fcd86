// Episode discovery (§1 and §6): the paper lists frequent-episode mining
// (Mannila & Toivonen) among the problems whose core is frequent-itemset
// discovery. This example maps an event sequence to a transaction database
// with a sliding window — each window becomes the set of event types it
// contains — and mines maximal frequent (parallel) episodes with
// Pincer-Search.
//
//   ./episodes [sequence_length] [window_size]

#include <iostream>
#include <vector>

#include "mining/miner.h"
#include "util/parse_number.h"
#include "util/prng.h"

namespace {

// Simulates an event log of `length` events over `num_types` event types.
// Three recurring multi-event episodes are injected: whenever their trigger
// fires, the member events all occur within the next few positions.
std::vector<pincer::ItemId> SimulateEventLog(size_t length, size_t num_types,
                                             uint64_t seed) {
  pincer::Prng prng(seed);
  const std::vector<std::vector<pincer::ItemId>> episodes = {
      {2, 7, 11},        // e.g. login -> query -> logout
      {3, 5, 13, 17},    // deployment burst
      {0, 19},           // heartbeat pair
  };
  std::vector<pincer::ItemId> log;
  log.reserve(length);
  while (log.size() < length) {
    if (prng.Bernoulli(0.25)) {
      const auto& episode = episodes[prng.UniformUint64(episodes.size())];
      for (pincer::ItemId event : episode) {
        log.push_back(event);
        // Interleave noise inside the episode occasionally.
        if (prng.Bernoulli(0.3)) {
          log.push_back(
              static_cast<pincer::ItemId>(prng.UniformUint64(num_types)));
        }
      }
    } else {
      log.push_back(
          static_cast<pincer::ItemId>(prng.UniformUint64(num_types)));
    }
  }
  log.resize(length);
  return log;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pincer;

  const StatusOr<size_t> length_arg =
      argc > 1 ? ParseSize(argv[1], "sequence_length") : size_t{20000};
  const StatusOr<size_t> window_arg =
      argc > 2 ? ParseSize(argv[2], "window_size") : size_t{8};
  if (!length_arg.ok() || !window_arg.ok()) {
    std::cerr << "usage: episodes [sequence_length] [window_size]\n";
    return 2;
  }
  const size_t length = *length_arg;
  const size_t window = *window_arg;
  constexpr size_t kNumTypes = 24;

  const std::vector<ItemId> log = SimulateEventLog(length, kNumTypes, 7);

  // Sliding window -> transaction database: window i holds the distinct
  // event types of log[i .. i+window).
  TransactionDatabase db(kNumTypes);
  for (size_t start = 0; start + window <= log.size(); start += 1) {
    Transaction types(log.begin() + static_cast<long>(start),
                      log.begin() + static_cast<long>(start + window));
    db.AddTransaction(std::move(types));
  }
  std::cout << "Event log of " << log.size() << " events -> " << db.size()
            << " windows of size " << window << "\n";

  MiningOptions options;
  options.min_support = 0.05;  // episode occurs in >= 5% of windows
  const MaximalSetResult result =
      MineMaximal(db, options, Algorithm::kPincerAdaptive);

  std::cout << "Maximal frequent parallel episodes (>= "
            << options.min_support * 100 << "% of windows):\n";
  for (const FrequentItemset& fi : result.mfs) {
    if (fi.itemset.size() < 2) continue;
    std::cout << "  events " << fi.itemset << " co-occur in " << fi.support
              << " windows\n";
  }
  std::cout << "(" << result.stats.passes << " passes, "
            << result.stats.reported_candidates << " candidates)\n";
  return 0;
}
