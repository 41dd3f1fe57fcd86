// Client for the pincer_serve daemon: builds one request line, sends it,
// prints the response. --format=text renders a mine response in mine_cli's
// output format (same "support <tab> items" lines), so a served result can
// be diffed against a cold CLI run — the serve-smoke CI job does exactly
// that.
//
//   ./pincer_query (--socket=PATH | --port=N) [request flags]
//
// The flag table in main() is the documentation: run with no arguments, or
// with an unknown flag, for the usage it generates.
//
// Exit status: 0 iff the daemon answered ok:true; 1 on an error response or
// transport failure; 2 on bad usage.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "mining/miner.h"
#include "util/flags.h"
#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/retry.h"
#include "util/socket.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace pincer;

  std::string socket_path;
  std::optional<size_t> tcp_port;
  std::string op = "mine";
  std::string database;
  std::optional<double> min_support;
  std::optional<Algorithm> algorithm;
  bool no_fast_path = false;
  std::optional<size_t> max_passes;
  std::optional<size_t> mfcs_cardinality_limit;
  std::optional<size_t> mfcs_work_limit;
  std::optional<double> budget_ms;
  bool no_cache = false;
  std::string id;
  std::string format = "json";
  double connect_timeout_ms = 0;
  using enum FlagCheck;
  Flags flags("pincer_query");
  flags.String("socket", "PATH", &socket_path, "daemon's Unix socket")
      .Number("port", &tcp_port, "daemon's loopback TCP port", kPort)
      .String("op", "mine|ping|list|shutdown", &op, "request op")
      .String("database", "NAME", &database, "database to mine")
      .Number("min-support", &min_support, "fraction of |D|",
              kSupportFraction)
      .Enum("algorithm", &algorithm, ParseAlgorithm, AlgorithmName,
            kAllAlgorithms, "mining algorithm, default the daemon's")
      .Bool("no-fast-path", &no_fast_path, "skip the pass-1/2 arrays")
      .Number("max-passes", &max_passes, "pass cap")
      .Number("mfcs-cardinality-limit", &mfcs_cardinality_limit, "MFCS cap")
      .Number("mfcs-work-limit", &mfcs_work_limit, "MFCS work cap")
      .Number("budget-ms", &budget_ms, "query budget", kNonNegativeMs)
      .Bool("no-cache", &no_cache, "bypass the result cache")
      .String("id", "TOKEN", &id, "echoed in the response")
      .String("format", "json|text", &format, "text = mine_cli's format")
      .Number("connect-timeout-ms", &connect_timeout_ms,
              "retry a refused connect this long", kNonNegativeMs);
  if (!flags.ParseArgv(argc, argv, 1)) return 2;
  if (format != "json" && format != "text") {
    std::cerr << "--format must be 'json' or 'text'\n";
    return 2;
  }
  if (socket_path.empty() == !tcp_port.has_value()) {
    std::cerr << "exactly one of --socket=PATH or --port=N is required\n";
    return flags.UsageError();
  }

  std::ostringstream request_os;
  {
    JsonWriter json(request_os, /*indent=*/0);
    json.BeginObject();
    json.KeyValue("op", op);
    if (!id.empty()) json.KeyValue("id", id);
    if (!database.empty()) json.KeyValue("database", database);
    if (min_support.has_value()) json.KeyValue("min_support", *min_support);
    if (algorithm.has_value()) {
      json.KeyValue("algorithm", AlgorithmName(*algorithm));
    }
    if (no_fast_path) json.KeyValue("use_array_fast_path", false);
    if (max_passes.has_value()) {
      json.KeyValue("max_passes", static_cast<uint64_t>(*max_passes));
    }
    if (mfcs_cardinality_limit.has_value()) {
      json.KeyValue("mfcs_cardinality_limit",
                    static_cast<uint64_t>(*mfcs_cardinality_limit));
    }
    if (mfcs_work_limit.has_value()) {
      json.KeyValue("mfcs_work_limit",
                    static_cast<uint64_t>(*mfcs_work_limit));
    }
    if (budget_ms.has_value()) json.KeyValue("budget_ms", *budget_ms);
    if (no_cache) json.KeyValue("no_cache", true);
    json.EndObject();
  }

  const auto connect = [&socket_path, &tcp_port] {
    return socket_path.empty() ? ConnectTcp(static_cast<uint16_t>(*tcp_port))
                               : ConnectUnix(socket_path);
  };
  StatusOr<UniqueFd> conn = connect();
  if (!conn.ok() && connect_timeout_ms > 0) {
    // The daemon may still be starting (scripts launch it and query right
    // away): retry with capped exponential backoff until the deadline.
    RetryPolicy policy;
    policy.initial_backoff_ms = 10;
    policy.multiplier = 2.0;
    policy.max_backoff_ms = 250;
    Timer timer;
    for (size_t retry = 1; !conn.ok(); ++retry) {
      const double remaining = connect_timeout_ms - timer.ElapsedMillis();
      if (remaining <= 0) break;
      const double sleep_ms = std::min(BackoffMs(policy, retry), remaining);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(sleep_ms));
      conn = connect();
    }
  }
  if (!conn.ok()) {
    std::cerr << "error: " << conn.status() << "\n";
    return 1;
  }
  if (const Status status = WriteLine(*conn, request_os.str());
      !status.ok()) {
    std::cerr << "error: " << status << "\n";
    return 1;
  }
  LineReader reader(*conn);
  std::string response;
  const StatusOr<bool> got = reader.ReadLine(response);
  if (!got.ok()) {
    std::cerr << "error: " << got.status() << "\n";
    return 1;
  }
  if (!*got) {
    std::cerr << "error: daemon closed the connection without responding\n";
    return 1;
  }

  const StatusOr<JsonValue> parsed = ParseJson(response);
  if (!parsed.ok() || !parsed->is_object()) {
    std::cerr << "error: unparseable response: " << response << "\n";
    return 1;
  }
  const JsonValue* ok = parsed->Find("ok");
  const bool succeeded =
      ok != nullptr && ok->AsBool().has_value() && *ok->AsBool();

  if (format == "text" && succeeded && op == "mine") {
    const JsonValue* mfs = parsed->Find("mfs");
    if (mfs == nullptr || !mfs->is_array()) {
      std::cerr << "error: mine response without mfs array\n";
      return 1;
    }
    std::cout << "# maximal frequent itemsets: " << mfs->array.size() << "\n";
    std::cout << "# format: support <tab> items...\n";
    for (const JsonValue& element : mfs->array) {
      const JsonValue* support = element.Find("support");
      const JsonValue* items = element.Find("items");
      if (support == nullptr || items == nullptr || !items->is_array()) {
        std::cerr << "error: malformed mfs element\n";
        return 1;
      }
      std::cout << support->scalar << "\t";
      for (size_t i = 0; i < items->array.size(); ++i) {
        if (i > 0) std::cout << ' ';
        std::cout << items->array[i].scalar;
      }
      std::cout << "\n";
    }
  } else {
    std::cout << response << "\n";
  }
  if (!succeeded) {
    const JsonValue* error = parsed->Find("error");
    std::cerr << "error: "
              << (error != nullptr && error->AsString().has_value()
                      ? std::string(*error->AsString())
                      : std::string("request failed"))
              << "\n";
    return 1;
  }
  return 0;
}
