// Structural golden test for the level-wise drivers. Every configuration of
// the grid below (algorithm x Quest fixture x array fast path x backend x
// threads) is mined uncapped and unbudgeted, and its pass structure — the
// run-level totals and the per-pass candidate / frequent / MFCS counts and
// backend picks, never a timing field — is rendered as text and compared
// with tests/golden/levelwise_structure.txt line for line.
//
// The golden file pins the pass structure the drivers produced before they
// were folded onto the shared run skeleton (mining/levelwise_run.h), so a
// refactor of the skeleton that changes which itemsets get counted in which
// pass shows up here even when the mined MFS stays correct. On a mismatch
// the test writes what it produced next to the test binary
// (levelwise_structure.actual) for diffing; an intended structural change
// is recorded by copying that file over the golden one.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gen/quest_gen.h"
#include "mining/miner.h"

namespace pincer {
namespace {

struct Fixture {
  std::string name;
  QuestParams params;
  double min_support;
};

// Two seeded Quest databases: a concentrated one (few long patterns, many
// passes, a live MFCS) and a scattered one (many short patterns, a wide
// pass 2).
std::vector<Fixture> Fixtures() {
  Fixture concentrated;
  concentrated.name = "concentrated";
  concentrated.params.num_transactions = 1500;
  concentrated.params.avg_transaction_size = 10;
  concentrated.params.num_items = 80;
  concentrated.params.num_patterns = 20;
  concentrated.params.avg_pattern_size = 6;
  concentrated.params.seed = 7;
  concentrated.min_support = 0.04;

  Fixture scattered;
  scattered.name = "scattered";
  scattered.params.num_transactions = 2000;
  scattered.params.avg_transaction_size = 8;
  scattered.params.num_items = 150;
  scattered.params.num_patterns = 200;
  scattered.params.avg_pattern_size = 4;
  scattered.params.seed = 11;
  scattered.min_support = 0.015;
  return {concentrated, scattered};
}

struct Variant {
  std::string label;
  Algorithm algorithm;
  // Nonzero forces the adaptive switch-off (pincer-adaptive only): a limit
  // of 8 trips in pass 1 on both fixtures, 200 in pass 4 on the
  // concentrated one.
  size_t mfcs_cardinality_limit = 0;
};

std::vector<Variant> Variants() {
  return {
      {"apriori", Algorithm::kApriori},
      {"apriori-combined", Algorithm::kAprioriCombined},
      {"pincer", Algorithm::kPincer},
      {"pincer-adaptive", Algorithm::kPincerAdaptive},
      {"pincer-adaptive/mfcs8", Algorithm::kPincerAdaptive, 8},
      {"pincer-adaptive/mfcs200", Algorithm::kPincerAdaptive, 200},
  };
}

void RenderStats(const MiningStats& stats, size_t mfs_size,
                 std::ostringstream& out) {
  out << "run passes=" << stats.passes
      << " total_candidates=" << stats.total_candidates
      << " reported_candidates=" << stats.reported_candidates
      << " mfcs_candidates=" << stats.mfcs_candidates
      << " mfcs_disabled=" << stats.mfcs_disabled
      << " mfcs_disabled_at_pass=" << stats.mfcs_disabled_at_pass
      << " aborted=" << stats.aborted
      << " budget_exceeded=" << stats.budget_exceeded << " mfs=" << mfs_size
      << "\n";
  for (const PassStats& pass : stats.per_pass) {
    out << "pass " << pass.pass << " num_candidates=" << pass.num_candidates
        << " num_frequent=" << pass.num_frequent
        << " num_mfcs_candidates=" << pass.num_mfcs_candidates
        << " num_mfs_found=" << pass.num_mfs_found
        << " mfcs_size_after=" << pass.mfcs_size_after
        << " backend_used=" << pass.backend_used << "\n";
  }
}

std::string RenderGrid() {
  std::ostringstream out;
  for (const Fixture& fixture : Fixtures()) {
    StatusOr<TransactionDatabase> db = GenerateQuestDatabase(fixture.params);
    EXPECT_TRUE(db.ok()) << db.status();
    if (!db.ok()) continue;
    for (const Variant& variant : Variants()) {
      for (bool fast : {true, false}) {
        // Combined's passes 1-2 ignored use_array_fast_path before the
        // shared skeleton, so its fast-path-off structure has no golden.
        if (variant.algorithm == Algorithm::kAprioriCombined && !fast) {
          continue;
        }
        for (CounterBackend backend :
             {CounterBackend::kTrie, CounterBackend::kAuto}) {
          for (size_t threads : {1, 4}) {
            MiningOptions options;
            options.min_support = fixture.min_support;
            options.use_array_fast_path = fast;
            options.backend = backend;
            options.num_threads = threads;
            options.mfcs_cardinality_limit = variant.mfcs_cardinality_limit;
            const MaximalSetResult result =
                MineMaximal(*db, options, variant.algorithm);
            out << "# " << fixture.name << " " << variant.label
                << (fast ? " fast" : " nofast") << " "
                << CounterBackendName(backend) << " t" << threads << "\n";
            RenderStats(result.stats, result.mfs.size(), out);
          }
        }
      }
    }
  }
  return out.str();
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(LevelwiseGolden, PassStructureMatchesGoldenFile) {
  const std::string golden_path =
      std::string(PINCER_GOLDEN_DIR) + "/levelwise_structure.txt";
  std::ifstream golden_in(golden_path);
  ASSERT_TRUE(golden_in) << "cannot read " << golden_path;
  std::stringstream golden;
  golden << golden_in.rdbuf();

  const std::string actual = RenderGrid();
  if (actual == golden.str()) return;

  std::ofstream("levelwise_structure.actual") << actual;
  const std::vector<std::string> want = Lines(golden.str());
  const std::vector<std::string> got = Lines(actual);
  // Report the first divergence together with the configuration header it
  // falls under.
  std::string header;
  for (size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    const std::string w = i < want.size() ? want[i] : "<end of file>";
    const std::string g = i < got.size() ? got[i] : "<end of output>";
    if (w == g) {
      if (w.rfind("# ", 0) == 0) header = w;
      continue;
    }
    FAIL() << "structure differs from " << golden_path << " at line "
           << i + 1 << " (under \"" << header << "\")\n  golden: " << w
           << "\n  actual: " << g
           << "\nfull output written to levelwise_structure.actual";
  }
}

}  // namespace
}  // namespace pincer
