// Fuzzes the daemon's wire-request parser (serve/request.h). Request lines
// arrive from untrusted clients over a socket, so ParseRequest must return
// InvalidArgument on anything malformed — never abort, over-read, or
// silently default a field. On an accepted parse the documented invariants
// are re-checked: a mine request always names a database and carries a
// usable support threshold, and the op always round-trips through
// RequestOpName.

#include <string_view>

#include "fuzz/fuzz_harness.h"
#include "serve/request.h"

namespace pincer {
namespace fuzz {

int FuzzServeRequest(const uint8_t* data, size_t size) {
  const std::string_view line(reinterpret_cast<const char*>(data), size);
  const StatusOr<Request> parsed = ParseRequest(line);
  if (!parsed.ok()) return 0;
  const Request& request = parsed.value();
  // Strict-parser contract: every accepted request is complete. A kMine
  // that reaches the miner without a database or with a nonsensical
  // threshold means the parser defaulted something it must reject.
  if (request.op == Request::Op::kMine) {
    if (request.database.empty()) __builtin_trap();
    const double min_support = request.options.min_support;
    if (!(min_support > 0.0 && min_support <= 1.0)) __builtin_trap();
  }
  if (RequestOpName(request.op).empty()) __builtin_trap();
  return 0;
}

}  // namespace fuzz
}  // namespace pincer

PINCER_FUZZ_ENTRYPOINT(pincer::fuzz::FuzzServeRequest)
