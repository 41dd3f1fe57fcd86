// The mining daemon: loads basket databases once, then serves mining
// queries over a Unix-domain or loopback TCP socket as newline-delimited
// JSON (schema in docs/serving.md). Query with examples/pincer_query.cc or
// anything that can speak one JSON object per line.
//
//   ./pincer_serve --db=NAME=PATH [--db=NAME=PATH ...]
//                  (--socket=PATH | --port=N) [flags]
//
// The flag table in main() is the documentation: run with no
// arguments, or with an unknown flag, for the usage it generates.
//
// Prints "READY <endpoint>" on stdout once listening (scripts wait for it).
// Exits 0 on SIGTERM/SIGINT or a client's shutdown op, after draining
// sessions. --port=0 picks a free port and reports it in the READY line.
//
// Exit status: 0 clean shutdown, 1 runtime failure, 2 bad usage.

#include <csignal>
#include <iostream>
#include <optional>
#include <string>

#include "serve/server.h"
#include "util/flags.h"

namespace {

// SIGTERM/SIGINT land here; Server::Shutdown is async-signal-safe.
pincer::Server* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->Shutdown();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pincer;

  ServerOptions options;
  std::string socket_path;
  std::optional<size_t> tcp_port;
  double idle_timeout_ms = 0;
  // The flag table lives only while parsing: nothing it allocates is still
  // alive when the service loads its databases.
  {
    using enum FlagCheck;
    Flags flags("pincer_serve");
    flags
        .Custom("db", "NAME=PATH", "load a database (repeatable)",
                [&options](std::string_view spec) -> Status {
                  const size_t eq = spec.find('=');
                  if (eq == spec.npos || eq == 0 || eq + 1 == spec.size()) {
                    return Status::InvalidArgument("--db needs NAME=PATH: " +
                                                   std::string(spec));
                  }
                  options.databases.push_back(
                      {std::string(spec.substr(0, eq)),
                       std::string(spec.substr(eq + 1))});
                  return Status::OK();
                })
        .String("socket", "PATH", &socket_path, "listen on a Unix socket",
                kNonEmptyPath)
        .Number("port", &tcp_port, "listen on loopback TCP", kPort)
        .Number("threads", &options.num_threads, "counting threads, 0 = all")
        .Number("cache", &options.cache_capacity, "result-cache entries",
                kPositive)
        .Number("default-budget-ms", &options.default_budget_ms,
                "budget of queries that set none", kNonNegativeMs)
        .Number("max-budget-ms", &options.max_budget_ms,
                "ceiling on any query's budget", kNonNegativeMs)
        .Enum("malformed", &options.malformed_rows, ParseMalformedRowPolicy,
              MalformedRowPolicyName, kAllMalformedRowPolicies,
              "row policy of the loads")
        .Number("idle-timeout-ms", &idle_timeout_ms,
                "drop a silent session, 0 = never", kNonNegativeMs);
    if (!flags.ParseArgv(argc, argv, 1)) return 2;
    if (options.databases.empty()) {
      std::cerr << "at least one --db=NAME=PATH is required\n";
      return flags.UsageError();
    }
    if (socket_path.empty() == !tcp_port.has_value()) {
      std::cerr << "exactly one of --socket=PATH or --port=N is required\n";
      return flags.UsageError();
    }
  }

  MiningService service;
  if (const Status status = service.Init(options); !status.ok()) {
    std::cerr << "error: " << status << "\n";
    return 1;
  }

  Server server(service);
  server.set_idle_timeout_ms(idle_timeout_ms);
  std::string endpoint;
  if (!socket_path.empty()) {
    if (const Status status = server.ListenUnix(socket_path); !status.ok()) {
      std::cerr << "error: " << status << "\n";
      return 1;
    }
    endpoint = "unix:" + socket_path;
  } else {
    const auto port = static_cast<uint16_t>(*tcp_port);
    if (const Status status = server.ListenTcp(port); !status.ok()) {
      std::cerr << "error: " << status << "\n";
      return 1;
    }
    endpoint = "tcp:127.0.0.1:" + std::to_string(server.port());
  }

  g_server = &server;
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  std::cout << "READY " << endpoint << std::endl;
  const Status status = server.Serve();
  if (!status.ok()) {
    std::cerr << "error: " << status << "\n";
    return 1;
  }
  std::cerr << "pincer_serve: clean shutdown\n";
  return 0;
}
