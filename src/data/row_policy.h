// Policy for rows that fail to parse (non-numeric tokens, negative or
// overflowing item ids, items at or beyond the declared universe). Shared
// by the in-memory reader (data/database_io.h) and the disk-streaming
// counter (counting/streaming_counter.h).

#ifndef PINCER_DATA_ROW_POLICY_H_
#define PINCER_DATA_ROW_POLICY_H_

#include <string>
#include <string_view>

#include "util/statusor.h"

namespace pincer {

/// What to do with a malformed row.
enum class MalformedRowPolicy {
  /// Fail the whole read with InvalidArgument naming the row's position.
  /// The default: silent data loss is worse than a failed run.
  kStrict,
  /// Drop the offending row, keep reading, and tally it in a
  /// `rows_skipped` counter the caller can surface (stats JSON, CLI
  /// warnings).
  kSkipAndCount,
};

inline std::string_view MalformedRowPolicyName(MalformedRowPolicy policy) {
  switch (policy) {
    case MalformedRowPolicy::kStrict:
      return "strict";
    case MalformedRowPolicy::kSkipAndCount:
      return "skip";
  }
  return "unknown";
}

inline constexpr MalformedRowPolicy kAllMalformedRowPolicies[] = {
    MalformedRowPolicy::kStrict, MalformedRowPolicy::kSkipAndCount};

/// Parses "strict" or "skip" (as accepted by mine_cli --malformed=).
inline StatusOr<MalformedRowPolicy> ParseMalformedRowPolicy(
    std::string_view name) {
  if (name == "strict") return MalformedRowPolicy::kStrict;
  if (name == "skip") return MalformedRowPolicy::kSkipAndCount;
  return Status::InvalidArgument(
      "--malformed must be 'strict' or 'skip', got \"" + std::string(name) +
      "\"");
}

}  // namespace pincer

#endif  // PINCER_DATA_ROW_POLICY_H_
