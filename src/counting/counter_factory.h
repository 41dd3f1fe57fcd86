// Factory for counting backends.

#ifndef PINCER_COUNTING_COUNTER_FACTORY_H_
#define PINCER_COUNTING_COUNTER_FACTORY_H_

#include <memory>
#include <string_view>

#include "counting/support_counter.h"
#include "data/database.h"
#include "util/statusor.h"
#include "util/thread_pool.h"

namespace pincer {

/// Creates a counter of the requested backend bound to `db`. The database
/// must outlive the returned counter. Without a pool, the scanning backends
/// run serially.
std::unique_ptr<SupportCounter> CreateCounter(CounterBackend backend,
                                              const TransactionDatabase& db);

/// As above, but attaches `pool` (may be null; must outlive the counter) so
/// every transaction-scanning backend splits its scans across the pool's
/// workers. This is how MiningOptions::num_threads reaches the backends:
/// the mining run owns one pool and hands it to the counter it creates.
std::unique_ptr<SupportCounter> CreateCounter(CounterBackend backend,
                                              const TransactionDatabase& db,
                                              ThreadPool* pool);

/// All available backends, for parameterized tests.
std::vector<CounterBackend> AllCounterBackends();

/// The backend a command-line name selects: any CounterBackendName, plus
/// `parallel`, a deprecated alias for `trie` (which scans on the run's
/// worker pool). InvalidArgument for any other name.
StatusOr<CounterBackend> ParseCounterBackend(std::string_view name);

}  // namespace pincer

#endif  // PINCER_COUNTING_COUNTER_FACTORY_H_
