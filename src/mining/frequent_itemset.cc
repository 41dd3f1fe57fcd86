#include "mining/frequent_itemset.h"

#include <algorithm>

namespace pincer {

std::ostream& operator<<(std::ostream& os, const FrequentItemset& fi) {
  return os << fi.itemset << " (support " << fi.support << ")";
}

std::vector<Itemset> ItemsetsOf(const std::vector<FrequentItemset>& list) {
  std::vector<Itemset> itemsets;
  itemsets.reserve(list.size());
  for (const FrequentItemset& fi : list) itemsets.push_back(fi.itemset);
  return itemsets;
}

size_t MaxLength(const std::vector<FrequentItemset>& list) {
  size_t longest = 0;
  for (const FrequentItemset& fi : list) {
    longest = std::max(longest, fi.itemset.size());
  }
  return longest;
}

void WriteMfsText(std::ostream& os, const std::vector<FrequentItemset>& mfs) {
  os << "# maximal frequent itemsets: " << mfs.size() << "\n";
  os << "# format: support <tab> items...\n";
  for (const FrequentItemset& fi : mfs) {
    os << fi.support << "\t";
    for (size_t i = 0; i < fi.itemset.size(); ++i) {
      if (i > 0) os << ' ';
      os << fi.itemset[i];
    }
    os << "\n";
  }
}

}  // namespace pincer
