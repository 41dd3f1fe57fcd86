// Wire requests for the mining daemon (serve/server.h). The protocol is one
// JSON object per line; this header defines the parsed form and the strict
// parser. Strictness is deliberate for a long-lived service: unknown keys,
// wrong types, and malformed numbers are all InvalidArgument instead of
// being silently defaulted — a typo'd "min_suport" must not mine at 1%.
// The full schema is documented in docs/serving.md.

#ifndef PINCER_SERVE_REQUEST_H_
#define PINCER_SERVE_REQUEST_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "mining/miner.h"
#include "util/statusor.h"

namespace pincer {

/// One parsed request line.
struct Request {
  enum class Op {
    /// Liveness probe; echoes id.
    kPing,
    /// Lists the resident databases and cache occupancy.
    kList,
    /// Mines one resident database (the fields below).
    kMine,
    /// Asks the daemon to stop accepting connections and exit.
    kShutdown,
  };

  Op op = Op::kPing;
  /// Optional client-chosen correlation token (a JSON string), echoed in
  /// the response. Empty = absent.
  std::string id;

  // kMine fields. The wire's mining keys land in `options` under their own
  // names, budget_ms in time_budget_ms (0 = the server default). There is
  // no backend/threads key: the daemon counts through each database's
  // resident counter and its pool, which is result-invariant.
  std::string database;
  MiningOptions options;
  Algorithm algorithm = Algorithm::kPincerAdaptive;
  /// True bypasses the result cache (always mines, result not stored).
  bool no_cache = false;
};

/// Parses one request line. InvalidArgument on malformed JSON, a non-object
/// document, an unknown op or key, a missing required field (`database`,
/// `min_support` for mine), a wrong-typed value, or a number that fails the
/// util/parse_number.h checks (the same helpers the CLI flags use).
StatusOr<Request> ParseRequest(std::string_view line);

std::string_view RequestOpName(Request::Op op);

}  // namespace pincer

#endif  // PINCER_SERVE_REQUEST_H_
