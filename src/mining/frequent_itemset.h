// Result value types shared by all miners.

#ifndef PINCER_MINING_FREQUENT_ITEMSET_H_
#define PINCER_MINING_FREQUENT_ITEMSET_H_

#include <cstdint>
#include <ostream>
#include <vector>

#include "itemset/itemset.h"

namespace pincer {

/// An itemset together with its absolute support count.
struct FrequentItemset {
  Itemset itemset;
  uint64_t support = 0;

  friend bool operator==(const FrequentItemset& a, const FrequentItemset& b) {
    return a.itemset == b.itemset && a.support == b.support;
  }
  /// Ordered by itemset only; supports of equal itemsets are equal by
  /// construction.
  friend bool operator<(const FrequentItemset& a, const FrequentItemset& b) {
    return a.itemset < b.itemset;
  }
};

std::ostream& operator<<(std::ostream& os, const FrequentItemset& fi);

/// Extracts the bare itemsets from a result list.
std::vector<Itemset> ItemsetsOf(const std::vector<FrequentItemset>& list);

/// Length of the longest itemset in the list (0 if empty).
size_t MaxLength(const std::vector<FrequentItemset>& list);

/// Writes the MFS in the text format mine_cli and pincer_shard print: a
/// "# maximal frequent itemsets: N" header, a format line, then one
/// "support <tab> items..." line per element, in list order.
void WriteMfsText(std::ostream& os, const std::vector<FrequentItemset>& mfs);

}  // namespace pincer

#endif  // PINCER_MINING_FREQUENT_ITEMSET_H_
