// Benchmark driver. Generates the seeded inputs, computes the reference
// answers, and runs the timed loops: cold jobs in mine_cli's call order
// against the library, and the two closed-loop clients of a pincer_serve
// daemon. run.py orchestrates the subcommands and turns their output into
// metrics; each subcommand prints one JSON object on stdout.
//
//   perfbench_driver info
//   perfbench_driver gen --out=F --t=T --i=I --l=L --n=N --d=D
//                        --pool-seed=P --seed=S
//   perfbench_driver reference --db=F --supports=S1,S2,.. --out-dir=DIR
//                              --name=NAME [--threads=N]
//   perfbench_driver cold --db=F --d=ROWS --supports=S1,..
//                         --backend=trie|auto --threads=N --seconds=S
//                         --min-jobs=N --trace=0|1 --ref-dir=DIR --name=NAME
//                         --out=F --trace-file=F [--corrupt-reference=1]
//   perfbench_driver serve --socket=PATH --plan=F --ref-dir=DIR
//                          --seconds=S --min-requests=N --trace=0|1
//                          --trace-file=F [--corrupt-reference=1]
//
// --corrupt-reference=1 appends a spurious itemset to every reference; the
// self-test uses it to show that wrong answers are reported as failures.
//
// Spans (--trace=1) are recorded around calls into the library's public
// functions and around each serve round trip, kept in memory, and written
// as Chrome trace-event JSON at the end. Nothing inside the library is
// instrumented.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "counting/counter_factory.h"
#include "data/database_io.h"
#include "data/database_stats.h"
#include "gen/pattern_pool.h"
#include "gen/quest_gen.h"
#include "mining/miner.h"
#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/parse_number.h"
#include "util/prng.h"
#include "util/socket.h"
#include "util/thread_pool.h"

namespace {

using pincer::JsonValue;
using pincer::JsonWriter;
using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double MsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

[[noreturn]] void Fail(const std::string& message) {
  std::cerr << "perfbench_driver: " << message << "\n";
  std::exit(1);
}

// --key=value flags; every subcommand flag is required unless it has a
// default at the call site.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      const size_t eq = arg.find('=');
      if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
        Fail("bad flag: " + arg);
      }
      values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  std::string Str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) Fail("missing --" + key);
    return it->second;
  }
  double Double(const std::string& key) const {
    const auto parsed = pincer::ParseDouble(Str(key), key);
    if (!parsed.ok()) Fail(parsed.status().ToString());
    return *parsed;
  }
  uint64_t Uint(const std::string& key) const {
    const auto parsed = pincer::ParseUint64(Str(key), key);
    if (!parsed.ok()) Fail(parsed.status().ToString());
    return *parsed;
  }
  uint64_t Uint(const std::string& key, uint64_t fallback) const {
    return values_.count(key) != 0 ? Uint(key) : fallback;
  }
  std::vector<double> DoubleList(const std::string& key) const {
    std::vector<double> out;
    std::stringstream in(Str(key));
    std::string token;
    while (std::getline(in, token, ',')) {
      const auto parsed = pincer::ParseDouble(token, key);
      if (!parsed.ok()) Fail(parsed.status().ToString());
      out.push_back(*parsed);
    }
    if (out.empty()) Fail("--" + key + " is empty");
    return out;
  }

 private:
  std::map<std::string, std::string> values_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Fail("cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out.good()) Fail("cannot write " + path);
}

size_t PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<size_t>(usage.ru_maxrss);
}

// ---------------------------------------------------------------------------
// Spans.

struct Span {
  const char* name = "";
  uint64_t op = 0;
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double child_ms = 0;  // time covered by direct children
  double ms() const { return MsBetween(start_ns, end_ns); }
  double self_ms() const { return ms() - child_ms; }
};

// One recorder per thread. Disabled recorders record nothing, so the
// untraced loops run the same code with no span bookkeeping.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int Begin(const char* name, uint64_t op) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.op = op;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start_ns = NowNs();
    spans_.push_back(span);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int index) {
    if (index < 0) return;
    Span& span = spans_[static_cast<size_t>(index)];
    span.end_ns = NowNs();
    stack_.pop_back();
    if (span.parent >= 0) {
      spans_[static_cast<size_t>(span.parent)].child_ms += span.ms();
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t op)
      : tracer_(tracer), index_(tracer.Begin(name, op)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

void WriteChromeTrace(const std::string& path,
                      const std::vector<const Tracer*>& tracers) {
  if (path.empty()) return;
  int64_t origin = INT64_MAX;
  for (const Tracer* tracer : tracers) {
    for (const Span& span : tracer->spans()) {
      origin = std::min(origin, span.start_ns);
    }
  }
  std::ofstream out(path, std::ios::trunc);
  JsonWriter json(out, 0);
  json.BeginObject().Key("traceEvents").BeginArray();
  for (size_t tid = 0; tid < tracers.size(); ++tid) {
    for (const Span& span : tracers[tid]->spans()) {
      json.BeginObject();
      json.KeyValue("name", span.name);
      json.KeyValue("ph", "X");
      json.KeyValue("pid", 1);
      json.KeyValue("tid", static_cast<uint64_t>(tid + 1));
      json.KeyValue("ts", static_cast<double>(span.start_ns - origin) / 1e3);
      json.KeyValue("dur", static_cast<double>(span.end_ns - span.start_ns) /
                               1e3);
      json.Key("args").BeginObject();
      json.KeyValue("op", span.op);
      json.KeyValue("self_ms", span.self_ms());
      json.EndObject();
      json.EndObject();
    }
  }
  json.EndArray().EndObject();
  out << "\n";
  if (!out.good()) Fail("cannot write " + path);
}

// Forwards every call to the counter CreateCounter built, timing each
// CountSupports call as a counting.count span. Handed to MineMaximal through
// the public resident-counter option.
class TracingCounter final : public pincer::SupportCounter {
 public:
  TracingCounter(pincer::SupportCounter& inner, Tracer& tracer, uint64_t op)
      : inner_(inner), tracer_(tracer), op_(op) {}

  std::vector<uint64_t> CountSupports(
      const std::vector<pincer::Itemset>& candidates) override {
    ScopedSpan span(tracer_, "counting.count", op_);
    return inner_.CountSupports(candidates);
  }
  pincer::CounterBackend backend() const override { return inner_.backend(); }
  pincer::CounterBackend backend_used() const override {
    return inner_.backend_used();
  }
  void set_metrics(pincer::CountingMetrics* metrics) override {
    inner_.set_metrics(metrics);
  }
  void set_thread_pool(pincer::ThreadPool* pool) override {
    inner_.set_thread_pool(pool);
  }
  void set_scan_budget(pincer::ScanBudget* budget) override {
    inner_.set_scan_budget(budget);
  }

 private:
  pincer::SupportCounter& inner_;
  Tracer& tracer_;
  uint64_t op_;
};

// ---------------------------------------------------------------------------
// Run statistics, from a MiningStats or from a served response's "stats".

struct OpStats {
  double elapsed_ms = 0;
  uint64_t passes = 0;
  double gen_ms = 0;
  double count_ms = 0;     // passes served by a generic backend
  double fastpath_ms = 0;  // passes served by the array fast paths
  double mfcs_update_ms = 0;
  double mfcs_index_ms = 0;
  // Candidates (bottom-up + MFCS elements) counted by a generic backend,
  // and how many of them turned out frequent.
  uint64_t counted = 0;
  uint64_t useful = 0;
  uint64_t mfcs_candidates = 0;
  uint64_t mfs_found = 0;
  uint64_t reported_candidates = 0;
  uint64_t count_calls = 0;
  uint64_t candidates_counted = 0;
  uint64_t transactions_scanned = 0;
  bool aborted = false;

  void AddPass(const std::string& backend_used, double gen, double counting,
               double update, double index, uint64_t candidates,
               uint64_t mfcs, uint64_t frequent, uint64_t found) {
    gen_ms += gen;
    mfcs_update_ms += update;
    mfcs_index_ms += index;
    mfcs_candidates += mfcs;
    mfs_found += found;
    if (backend_used == "array") {
      fastpath_ms += counting;
    } else {
      count_ms += counting;
      counted += candidates + mfcs;
      useful += frequent + found;
    }
  }

  void ToJson(JsonWriter& json) const {
    json.BeginObject();
    json.KeyValue("elapsed_ms", elapsed_ms);
    json.KeyValue("passes", passes);
    json.KeyValue("gen_ms", gen_ms);
    json.KeyValue("count_ms", count_ms);
    json.KeyValue("fastpath_ms", fastpath_ms);
    json.KeyValue("mfcs_update_ms", mfcs_update_ms);
    json.KeyValue("mfcs_index_ms", mfcs_index_ms);
    json.KeyValue("counted", counted);
    json.KeyValue("useful", useful);
    json.KeyValue("mfcs_candidates", mfcs_candidates);
    json.KeyValue("mfs_found", mfs_found);
    json.KeyValue("reported_candidates", reported_candidates);
    json.KeyValue("count_calls", count_calls);
    json.KeyValue("candidates_counted", candidates_counted);
    json.KeyValue("transactions_scanned", transactions_scanned);
    json.KeyValue("aborted", aborted);
    json.EndObject();
  }
};

OpStats FromMiningStats(const pincer::MiningStats& stats) {
  OpStats out;
  out.elapsed_ms = stats.elapsed_millis;
  out.passes = stats.passes;
  out.reported_candidates = stats.reported_candidates;
  out.count_calls = stats.counting.count_calls;
  out.candidates_counted = stats.counting.candidates_counted;
  out.transactions_scanned = stats.counting.transactions_scanned;
  out.aborted = stats.aborted;
  for (const pincer::PassStats& pass : stats.per_pass) {
    out.AddPass(pass.backend_used, pass.candidate_gen_ms, pass.counting_ms,
                pass.mfcs_update_ms, pass.mfcs_index_ms, pass.num_candidates,
                pass.num_mfcs_candidates, pass.num_frequent,
                pass.num_mfs_found);
  }
  return out;
}

double NumberAt(const JsonValue& object, std::string_view key) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr || !value->AsDouble().has_value()) {
    throw std::runtime_error("lacks number \"" + std::string(key) +
                             "\"");
  }
  return *value->AsDouble();
}

uint64_t CountAt(const JsonValue& object, std::string_view key) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr || !value->AsUint64().has_value()) {
    throw std::runtime_error("lacks count \"" + std::string(key) +
                             "\"");
  }
  return *value->AsUint64();
}

const JsonValue& ObjectAt(const JsonValue& object, std::string_view key) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr || !(value->is_object() || value->is_array())) {
    throw std::runtime_error("lacks \"" + std::string(key) + "\"");
  }
  return *value;
}

std::string StringAt(const JsonValue& object, std::string_view key) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr || !value->AsString().has_value()) {
    throw std::runtime_error("lacks string \"" + std::string(key) + "\"");
  }
  return std::string(*value->AsString());
}

// `counting` is the work this query did (the response's query.counting).
OpStats FromResponseStats(const JsonValue& stats, const JsonValue& counting) {
  OpStats out;
  out.elapsed_ms = NumberAt(stats, "elapsed_ms");
  out.passes = CountAt(stats, "passes");
  out.reported_candidates = CountAt(stats, "reported_candidates");
  const JsonValue* aborted = stats.Find("aborted");
  out.aborted = aborted != nullptr && aborted->AsBool().value_or(true);
  out.count_calls = CountAt(counting, "count_calls");
  out.candidates_counted = CountAt(counting, "candidates_counted");
  out.transactions_scanned = CountAt(counting, "transactions_scanned");
  for (const JsonValue& pass : ObjectAt(stats, "per_pass").array) {
    out.AddPass(StringAt(pass, "backend_used"),
                NumberAt(pass, "candidate_gen_ms"),
                NumberAt(pass, "counting_ms"),
                NumberAt(pass, "mfcs_update_ms"),
                NumberAt(pass, "mfcs_index_ms"), CountAt(pass, "candidates"),
                CountAt(pass, "mfcs_candidates"), CountAt(pass, "frequent"),
                CountAt(pass, "mfs_found"));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Output in mine_cli's format, and the reference answers.

void AppendMfsText(std::string& out, size_t size) {
  out += "# maximal frequent itemsets: " + std::to_string(size) + "\n";
  out += "# format: support <tab> items...\n";
}

std::string MfsText(const std::vector<pincer::FrequentItemset>& mfs) {
  std::string out;
  AppendMfsText(out, mfs.size());
  for (const pincer::FrequentItemset& fi : mfs) {
    out += std::to_string(fi.support);
    out += '\t';
    for (size_t i = 0; i < fi.itemset.size(); ++i) {
      if (i > 0) out += ' ';
      out += std::to_string(fi.itemset[i]);
    }
    out += '\n';
  }
  return out;
}

// The served "mfs" array rendered exactly as MfsText renders a result.
std::string MfsText(const JsonValue& mfs) {
  std::string out;
  AppendMfsText(out, mfs.array.size());
  for (const JsonValue& element : mfs.array) {
    out += std::to_string(CountAt(element, "support"));
    out += '\t';
    const JsonValue& items = ObjectAt(element, "items");
    for (size_t i = 0; i < items.array.size(); ++i) {
      if (i > 0) out += ' ';
      out += items.array[i].scalar;
    }
    out += '\n';
  }
  return out;
}

// Appended to every reference by --corrupt-reference=1 (the self-test):
// a correct answer must then be reported as a failure.
constexpr std::string_view kSpuriousItemset = "1\t0\n";

std::string ReferencePath(const std::string& dir, const std::string& name,
                          uint64_t min_count) {
  return dir + "/ref-" + name + "-" + std::to_string(min_count) + ".txt";
}

// ---------------------------------------------------------------------------
// info

int CmdInfo() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif
#else
  const bool sanitized = false;
#endif
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  JsonWriter json(std::cout, 0);
  json.BeginObject();
  json.KeyValue("compiler", PERFBENCH_COMPILER);
  json.KeyValue("build_type", PERFBENCH_BUILD_TYPE);
  json.KeyValue("optimized", optimized);
  json.KeyValue("sanitized", sanitized);
  json.KeyValue("contracts", PERFBENCH_CONTRACTS != 0);
  json.KeyValue("nproc", cpus);
  json.EndObject();
  std::cout << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// gen: a Quest database whose pattern pool comes from --pool-seed and whose
// transactions come from --seed. The pool fixes the workload's shape (which
// itemsets are potentially frequent); the transactions are the seeded
// sample. The packing loop follows GenerateQuestDatabase (src/gen).

int CmdGen(const Flags& flags) {
  pincer::QuestParams params;
  params.avg_transaction_size = flags.Double("t");
  params.avg_pattern_size = flags.Double("i");
  params.num_patterns = flags.Uint("l");
  params.num_items = flags.Uint("n");
  params.num_transactions = flags.Uint("d");
  if (const pincer::Status valid = pincer::ValidateQuestParams(params);
      !valid.ok()) {
    Fail(valid.ToString());
  }
  pincer::Prng pool_prng(flags.Uint("pool-seed"));
  pincer::PatternPoolParams pool_params;
  pool_params.num_items = params.num_items;
  pool_params.num_patterns = params.num_patterns;
  pool_params.avg_pattern_size = params.avg_pattern_size;
  pool_params.correlation = params.correlation;
  pool_params.corruption_mean = params.corruption_mean;
  pool_params.corruption_stddev = params.corruption_stddev;
  const pincer::PatternPool pool(pool_params, pool_prng);

  pincer::Prng prng(flags.Uint("seed"));
  pincer::TransactionDatabase db(params.num_items);
  std::vector<pincer::ItemId> carried;
  while (db.size() < params.num_transactions) {
    const size_t target =
        std::max<size_t>(prng.Poisson(params.avg_transaction_size), 1);
    std::unordered_set<pincer::ItemId> chosen(carried.begin(), carried.end());
    carried.clear();
    size_t attempts = 0;
    while (chosen.size() < target && attempts < 8 * (target + 4)) {
      ++attempts;
      const pincer::Pattern& pattern = pool.patterns()[pool.SampleIndex(prng)];
      std::vector<pincer::ItemId> fragment = pattern.items;
      while (!fragment.empty() && prng.UniformDouble() < pattern.corruption) {
        fragment.erase(fragment.begin() + static_cast<long>(
                                              prng.UniformUint64(
                                                  fragment.size())));
      }
      if (fragment.empty()) continue;
      if (chosen.size() + fragment.size() > target && !chosen.empty()) {
        if (prng.Bernoulli(0.5)) {
          chosen.insert(fragment.begin(), fragment.end());
        } else {
          carried = std::move(fragment);
        }
        break;
      }
      chosen.insert(fragment.begin(), fragment.end());
    }
    if (chosen.empty()) continue;
    db.AddTransaction(pincer::Transaction(chosen.begin(), chosen.end()));
  }
  const std::string out = flags.Str("out");
  if (const pincer::Status written = pincer::WriteDatabaseToFile(db, out);
      !written.ok()) {
    Fail(written.ToString());
  }
  JsonWriter json(std::cout, 0);
  json.BeginObject();
  json.KeyValue("name", params.Name());
  json.KeyValue("transactions", static_cast<uint64_t>(db.size()));
  json.KeyValue("occurrences", db.TotalItemOccurrences());
  json.EndObject();
  std::cout << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// reference: Apriori on the vertical backend (a different algorithm and
// backend from every measured configuration), one run per threshold. Also
// times the loads and the resident structures the daemon builds at startup,
// which is where serve-mix pays for the data and counting layers.

int CmdReference(const Flags& flags) {
  const std::string path = flags.Str("db");
  const int64_t read_start = NowNs();
  pincer::StatusOr<pincer::TransactionDatabase> db =
      pincer::ReadDatabaseFromFile(path);
  const double read_ms = MsBetween(read_start, NowNs());
  if (!db.ok()) Fail(db.status().ToString());

  JsonWriter json(std::cout, 0);
  json.BeginObject();
  json.KeyValue("read_ms", read_ms);
  {
    const int64_t start = NowNs();
    db->EnsureBitsets();
    const auto counter = pincer::CreateCounter(pincer::CounterBackend::kAuto,
                                               *db);
    json.KeyValue("resident_create_ms", MsBetween(start, NowNs()));
  }
  json.Key("runs").BeginArray();
  for (const double support : flags.DoubleList("supports")) {
    pincer::MiningOptions options;
    options.min_support = support;
    options.backend = pincer::CounterBackend::kVertical;
    options.num_threads = flags.Uint("threads", 1);
    options.collect_counter_metrics = true;
    const pincer::MaximalSetResult result =
        pincer::MineMaximal(*db, options, pincer::Algorithm::kApriori);
    if (result.stats.aborted) Fail("reference run aborted");
    const uint64_t min_count = db->MinSupportCount(support);
    WriteFile(ReferencePath(flags.Str("out-dir"), flags.Str("name"),
                            min_count),
              MfsText(result.mfs));
    json.BeginObject();
    json.KeyValue("min_support", support);
    json.KeyValue("min_count", min_count);
    json.KeyValue("mfs_size", static_cast<uint64_t>(result.mfs.size()));
    json.Key("stats");
    FromMiningStats(result.stats).ToJson(json);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  std::cout << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// cold: repeated jobs, each ReadDatabaseFromFile -> ComputeStats ->
// MineMaximal -> the MFS written as mine_cli prints it. Untraced jobs make
// exactly mine_cli's calls. Traced jobs build the counter with CreateCounter
// and hand MineMaximal a forwarding counter, so each CountSupports call is a
// span. With --trace=1 traced and untraced jobs alternate by cycle over the
// support list, which gives trace.overhead_pct from one run.

struct ColdConfig {
  std::string db_path;
  std::string out_path;
  pincer::CounterBackend backend = pincer::CounterBackend::kTrie;
  size_t threads = 1;
};

struct JobRecord {
  double ms = 0;
  double support = 0;
  bool traced = false;
  bool ok = false;
  std::string error;
  OpStats stats;
  std::map<std::string, double> self_ms;  // layer self times (traced only)
};

JobRecord RunJob(const ColdConfig& config, double support, Tracer& tracer,
                 uint64_t op, const std::string& reference) {
  JobRecord record;
  record.support = support;
  record.traced = tracer.enabled();
  const size_t first_span = tracer.spans().size();
  const int64_t start = NowNs();
  std::string text;
  {
    ScopedSpan job(tracer, "job", op);
    pincer::StatusOr<pincer::TransactionDatabase> db = [&] {
      ScopedSpan span(tracer, "data.read", op);
      return pincer::ReadDatabaseFromFile(config.db_path);
    }();
    if (!db.ok()) {
      record.error = db.status().ToString();
      return record;
    }
    std::string db_stats;
    {
      ScopedSpan span(tracer, "data.stats", op);
      db_stats = pincer::ComputeStats(*db).ToString();
    }
    pincer::MiningOptions options;
    options.min_support = support;
    options.backend = config.backend;
    options.num_threads = config.threads;
    pincer::MaximalSetResult result;
    if (tracer.enabled()) {
      std::unique_ptr<pincer::ThreadPool> pool;
      std::unique_ptr<pincer::SupportCounter> counter;
      {
        ScopedSpan span(tracer, "counting.create", op);
        pool = std::make_unique<pincer::ThreadPool>(config.threads);
        counter = pincer::CreateCounter(config.backend, *db, pool.get());
      }
      TracingCounter forwarding(*counter, tracer, op);
      options.resident_counter = &forwarding;
      options.shared_pool = pool.get();
      options.collect_counter_metrics = true;
      ScopedSpan span(tracer, "mining.mine", op);
      result = pincer::MineMaximal(*db, options,
                                   pincer::Algorithm::kPincerAdaptive);
    } else {
      result = pincer::MineMaximal(*db, options,
                                   pincer::Algorithm::kPincerAdaptive);
    }
    {
      ScopedSpan span(tracer, "output.write", op);
      text = MfsText(result.mfs);
      std::ofstream out(config.out_path, std::ios::trunc);
      out << db_stats << text;
      if (!out.good()) {
        record.error = "cannot write " + config.out_path;
      }
    }
    record.stats = FromMiningStats(result.stats);
  }
  record.ms = MsBetween(start, NowNs());
  if (record.error.empty() && record.stats.aborted) {
    record.error = "run aborted";
  }
  if (record.error.empty() && text != reference) {
    record.error = "MFS differs from the reference";
  }
  record.ok = record.error.empty();
  if (tracer.enabled()) {
    for (size_t i = first_span; i < tracer.spans().size(); ++i) {
      const Span& span = tracer.spans()[i];
      record.self_ms[span.name] += span.self_ms();
    }
  }
  return record;
}

void JobToJson(JsonWriter& json, const JobRecord& job) {
  json.BeginObject();
  json.KeyValue("ms", job.ms);
  json.KeyValue("min_support", job.support);
  json.KeyValue("traced", job.traced);
  json.KeyValue("ok", job.ok);
  if (!job.ok) json.KeyValue("error", job.error);
  json.Key("stats");
  job.stats.ToJson(json);
  if (job.traced) {
    json.Key("self_ms").BeginObject();
    for (const auto& [name, ms] : job.self_ms) json.KeyValue(name, ms);
    json.EndObject();
  }
  json.EndObject();
}

int CmdCold(const Flags& flags) {
  ColdConfig config;
  config.db_path = flags.Str("db");
  config.out_path = flags.Str("out");
  config.threads = flags.Uint("threads");
  const std::string backend = flags.Str("backend");
  bool known = false;
  for (const pincer::CounterBackend candidate :
       pincer::AllCounterBackends()) {
    if (backend == pincer::CounterBackendName(candidate)) {
      config.backend = candidate;
      known = true;
    }
  }
  if (!known) Fail("unknown backend " + backend);
  const std::vector<double> supports = flags.DoubleList("supports");
  const bool trace = flags.Uint("trace") != 0;
  const double seconds = flags.Double("seconds");
  const uint64_t min_jobs = flags.Uint("min-jobs");
  const uint64_t num_transactions = flags.Uint("d");
  const bool corrupt = flags.Uint("corrupt-reference", 0) != 0;

  // References are read before timing starts.
  std::vector<std::string> references;
  for (const double support : supports) {
    const auto min_count = static_cast<uint64_t>(
        std::ceil(support * static_cast<double>(num_transactions)));
    references.push_back(ReadFile(ReferencePath(
        flags.Str("ref-dir"), flags.Str("name"), std::max<uint64_t>(
                                                     min_count, 1))));
    if (corrupt) references.back() += kSpuriousItemset;
  }

  Tracer traced(true);
  Tracer untraced(false);
  // The first job of the process is the set-up sample: it pays the
  // allocator's first touch of every structure a job builds.
  const JobRecord first =
      RunJob(config, supports[0], untraced, 0, references[0]);
  std::vector<JobRecord> jobs;
  const int64_t start = NowNs();
  uint64_t op = 0;
  while (jobs.size() < min_jobs ||
         MsBetween(start, NowNs()) < seconds * 1000.0) {
    const size_t slot = op % supports.size();
    const bool trace_this = trace && (op / supports.size()) % 2 == 0;
    ++op;
    jobs.push_back(RunJob(config, supports[slot],
                          trace_this ? traced : untraced, op,
                          references[slot]));
  }
  const double wall_ms = MsBetween(start, NowNs());
  if (trace) WriteChromeTrace(flags.Str("trace-file"), {&traced});

  JsonWriter json(std::cout, 0);
  json.BeginObject();
  json.KeyValue("wall_ms", wall_ms);
  json.KeyValue("peak_rss_kb", static_cast<uint64_t>(PeakRssKb()));
  json.Key("first");
  JobToJson(json, first);
  json.Key("jobs").BeginArray();
  for (const JobRecord& job : jobs) JobToJson(json, job);
  json.EndArray();
  json.EndObject();
  std::cout << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// serve: two closed-loop connections to a running pincer_serve. The mine
// client walks the plan's seeded request sequence with no_cache set; the
// cached client, running at the same time, repeats requests primed before
// timing and sends stricter-threshold queries that the daemon answers by
// filtering a cached result. Every response is compared with the reference.

struct PlannedRequest {
  std::string database;
  std::string algorithm;
  double min_support = 0;
  uint64_t min_count = 0;  // what min_support resolves to; keys the reference
  uint64_t num_transactions = 0;
  bool filter = false;  // cached client: jitter the threshold within min_count
  const std::string* reference = nullptr;
};

struct RequestRecord {
  double ms = 0;
  bool ok = false;
  std::string error;
  std::string cache;
  double query_ms = 0;
  OpStats stats;
};

class Connection {
 public:
  explicit Connection(const std::string& socket_path) {
    pincer::StatusOr<pincer::UniqueFd> fd = pincer::ConnectUnix(socket_path);
    if (!fd.ok()) Fail("connect: " + fd.status().ToString());
    fd_ = std::move(*fd);
    reader_ = std::make_unique<pincer::LineReader>(fd_);
  }

  // Round trip of one request line; the response line lands in `response`.
  pincer::Status RoundTrip(const std::string& request, std::string& response) {
    PINCER_RETURN_IF_ERROR(pincer::WriteLine(fd_, request));
    pincer::StatusOr<bool> got = reader_->ReadLine(response);
    if (!got.ok()) return got.status();
    if (!*got) return pincer::Status::IoError("daemon closed the connection");
    return pincer::Status::OK();
  }

 private:
  pincer::UniqueFd fd_;
  std::unique_ptr<pincer::LineReader> reader_;
};

std::string RequestLine(const PlannedRequest& request, double min_support,
                        bool no_cache) {
  std::ostringstream out;
  JsonWriter json(out, 0);
  json.BeginObject();
  json.KeyValue("op", "mine");
  json.KeyValue("database", request.database);
  json.KeyValue("algorithm", request.algorithm);
  json.KeyValue("min_support", min_support);
  if (no_cache) json.KeyValue("no_cache", true);
  json.EndObject();
  return out.str();
}

RequestRecord Send(Connection& connection, Tracer& tracer, uint64_t op,
                   const PlannedRequest& request, double min_support,
                   bool no_cache) {
  RequestRecord record;
  const std::string line = RequestLine(request, min_support, no_cache);
  std::string response;
  const int64_t start = NowNs();
  pincer::Status status;
  {
    ScopedSpan span(tracer, "request", op);
    status = connection.RoundTrip(line, response);
  }
  record.ms = MsBetween(start, NowNs());
  if (!status.ok()) {
    record.error = status.ToString();
    return record;
  }
  try {
    pincer::StatusOr<JsonValue> parsed = pincer::ParseJson(response);
    if (!parsed.ok()) throw std::runtime_error(parsed.status().ToString());
    const JsonValue* ok = parsed->Find("ok");
    if (ok == nullptr || !ok->AsBool().value_or(false)) {
      throw std::runtime_error("error response: " + response.substr(0, 200));
    }
    record.cache = StringAt(*parsed, "cache");
    const JsonValue& query = ObjectAt(*parsed, "query");
    record.query_ms = NumberAt(query, "elapsed_ms");
    record.stats = FromResponseStats(ObjectAt(*parsed, "stats"),
                                     ObjectAt(query, "counting"));
    if (record.stats.aborted) throw std::runtime_error("run aborted");
    if (CountAt(*parsed, "min_count") != request.min_count) {
      throw std::runtime_error("unexpected min_count");
    }
    if (MfsText(ObjectAt(*parsed, "mfs")) != *request.reference) {
      throw std::runtime_error("MFS differs from the reference");
    }
    record.ok = true;
  } catch (const std::exception& error) {
    record.error = error.what();
  }
  return record;
}

std::vector<PlannedRequest> ParsePlanList(
    const JsonValue& plan, std::string_view key, const std::string& ref_dir,
    std::map<std::string, std::string>& references, bool corrupt) {
  std::vector<PlannedRequest> out;
  for (const JsonValue& entry : ObjectAt(plan, key).array) {
    PlannedRequest request;
    request.database = StringAt(entry, "database");
    request.algorithm = StringAt(entry, "algorithm");
    request.min_support = NumberAt(entry, "min_support");
    request.min_count = CountAt(entry, "min_count");
    request.num_transactions = CountAt(entry, "num_transactions");
    const JsonValue* filter = entry.Find("filter");
    request.filter = filter != nullptr && filter->AsBool().value_or(false);
    const std::string path =
        ReferencePath(ref_dir, request.database, request.min_count);
    auto it = references.find(path);
    if (it == references.end()) {
      std::string text = ReadFile(path);
      if (corrupt) text += kSpuriousItemset;
      it = references.emplace(path, std::move(text)).first;
    }
    request.reference = &it->second;
    out.push_back(request);
  }
  if (out.empty()) Fail("plan list " + std::string(key) + " is empty");
  return out;
}

// `request` is null for the records that carry no run statistics.
void RecordToJson(JsonWriter& json, const RequestRecord& record,
                  const PlannedRequest* request) {
  json.BeginObject();
  json.KeyValue("ms", record.ms);
  json.KeyValue("ok", record.ok);
  if (!record.ok) json.KeyValue("error", record.error);
  json.KeyValue("cache", record.cache);
  json.KeyValue("query_ms", record.query_ms);
  if (request != nullptr) {
    json.KeyValue("database", request->database);
    json.KeyValue("algorithm", request->algorithm);
    json.KeyValue("min_count", request->min_count);
    json.KeyValue("transactions", request->num_transactions);
    json.Key("stats");
    record.stats.ToJson(json);
  }
  json.EndObject();
}

int CmdServe(const Flags& flags) {
  const pincer::StatusOr<JsonValue> plan =
      pincer::ParseJson(ReadFile(flags.Str("plan")));
  if (!plan.ok()) Fail("plan: " + plan.status().ToString());
  const std::string ref_dir = flags.Str("ref-dir");
  const bool corrupt = flags.Uint("corrupt-reference", 0) != 0;
  std::map<std::string, std::string> references;
  const std::vector<PlannedRequest> mine =
      ParsePlanList(*plan, "mine", ref_dir, references, corrupt);
  const std::vector<PlannedRequest> prime =
      ParsePlanList(*plan, "prime", ref_dir, references, corrupt);
  const std::vector<PlannedRequest> cached =
      ParsePlanList(*plan, "cached", ref_dir, references, corrupt);
  const bool trace = flags.Uint("trace") != 0;
  const double seconds = flags.Double("seconds");
  const uint64_t min_requests = flags.Uint("min-requests");
  const std::string socket_path = flags.Str("socket");

  Connection mine_connection(socket_path);
  Connection cached_connection(socket_path);
  Tracer untraced(false);

  // Prime the cache before timing; every primed answer is checked too.
  std::vector<RequestRecord> primed;
  for (const PlannedRequest& request : prime) {
    primed.push_back(Send(cached_connection, untraced, 0, request,
                          request.min_support, false));
  }

  // With --trace=1 the mine client traces whole cycles of the plan and
  // leaves the next cycle untraced, which gives trace.overhead_pct.
  const size_t cycle = static_cast<size_t>(CountAt(*plan, "cycle"));
  // The cached client thinks between requests, like a user would; the
  // think time keeps its load on the shared cores bounded.
  const std::chrono::microseconds think(
      static_cast<int64_t>(NumberAt(*plan, "cached_think_ms") * 1000.0));
  Tracer mine_tracer(true);
  Tracer cached_tracer(trace);
  std::vector<RequestRecord> mine_records;
  std::vector<size_t> mine_slots;
  std::vector<bool> mine_traced;
  std::vector<RequestRecord> cached_records;
  std::atomic<bool> stop{false};
  double mine_wall_ms = 0;
  double cached_wall_ms = 0;

  const int64_t start = NowNs();
  std::thread cached_thread([&] {
    uint64_t op = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const size_t slot = op % cached.size();
      const PlannedRequest& request = cached[slot];
      double min_support = request.min_support;
      if (request.filter) {
        // A fresh threshold every time (so the exact-key lookup misses and
        // the filter path answers), always resolving to the same min_count.
        const double jitter =
            0.25 + 0.5 * std::fmod(static_cast<double>(op) * 0.6180339887, 1.0);
        min_support = (static_cast<double>(request.min_count) - 1.0 + jitter) /
                      static_cast<double>(request.num_transactions);
      }
      ++op;
      cached_records.push_back(Send(cached_connection, cached_tracer, op,
                                    request, min_support, false));
      std::this_thread::sleep_for(think);
    }
    cached_wall_ms = MsBetween(start, NowNs());
  });
  uint64_t op = 0;
  while (mine_records.size() < min_requests ||
         MsBetween(start, NowNs()) < seconds * 1000.0) {
    const size_t slot = op % mine.size();
    const bool trace_this = trace && (op / cycle) % 2 == 0;
    ++op;
    mine_records.push_back(Send(mine_connection,
                                trace_this ? mine_tracer : untraced, op,
                                mine[slot], mine[slot].min_support, true));
    mine_slots.push_back(slot);
    mine_traced.push_back(trace_this);
  }
  mine_wall_ms = MsBetween(start, NowNs());
  stop.store(true, std::memory_order_release);
  cached_thread.join();
  if (trace) {
    WriteChromeTrace(flags.Str("trace-file"), {&mine_tracer, &cached_tracer});
  }

  JsonWriter json(std::cout, 0);
  json.BeginObject();
  json.KeyValue("mine_wall_ms", mine_wall_ms);
  json.KeyValue("cached_wall_ms", cached_wall_ms);
  json.Key("primed").BeginArray();
  for (const RequestRecord& record : primed) {
    RecordToJson(json, record, nullptr);
  }
  json.EndArray();
  json.Key("mine").BeginArray();
  for (size_t i = 0; i < mine_records.size(); ++i) {
    json.BeginObject();
    json.KeyValue("traced", static_cast<bool>(mine_traced[i]));
    json.Key("record");
    RecordToJson(json, mine_records[i], &mine[mine_slots[i]]);
    json.EndObject();
  }
  json.EndArray();
  json.Key("cached").BeginArray();
  for (const RequestRecord& record : cached_records) {
    RecordToJson(json, record, nullptr);
  }
  json.EndArray();
  json.EndObject();
  std::cout << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Fail("usage: perfbench_driver info|gen|reference|cold|serve");
  const std::string command = argv[1];
  const Flags flags(argc, argv, 2);
  if (command == "info") return CmdInfo();
  if (command == "gen") return CmdGen(flags);
  if (command == "reference") return CmdReference(flags);
  if (command == "cold") return CmdCold(flags);
  try {
    if (command == "serve") return CmdServe(flags);
  } catch (const std::exception& error) {
    Fail(error.what());
  }
  Fail("unknown subcommand " + command);
}
