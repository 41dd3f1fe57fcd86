// One typed flag table per command-line entry point. Each entry binds one
// `--name` to a typed field and may carry one named check, written once
// here. Numbers go only through util/parse_number.h. The usage text is
// generated from the table, so it cannot drift from the flags accepted.
//
// Grammar: `--name=value`, or `--name` for a bare flag. A repeated flag is
// applied again (the last value wins). Any other token is positional.

#ifndef PINCER_UTIL_FLAGS_H_
#define PINCER_UTIL_FLAGS_H_

#include <functional>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/parse_number.h"

namespace pincer {

/// A range check a flag's parsed value must pass.
enum class FlagCheck {
  kNone,
  kSupportFraction,  // number in (0, 1]
  kNonNegativeMs,    // milliseconds >= 0
  kPositive,         // count, size or mean > 0
  kNonEmptyPath,     // string that is not empty
  kPort,             // TCP port in [0, 65535]
};

/// OK, or InvalidArgument naming `flag` when `value` fails `check`.
Status CheckFlagValue(FlagCheck check, const std::string& flag, double value);

class Flags {
 public:
  /// `program` and `synopsis` (the positional arguments) head the usage.
  explicit Flags(std::string program, std::string synopsis = "")
      : program_(std::move(program)), synopsis_(std::move(synopsis)) {}

  /// A double, size_t or uint64_t field, or a std::optional of one (left
  /// empty unless the flag is given).
  template <typename T>
  Flags& Number(std::string_view name, T* out, std::string_view help,
                FlagCheck check = FlagCheck::kNone) {
    // The value type: std::optional(x) of an optional x is x's own type.
    using V = typename decltype(std::optional(*out))::value_type;
    std::ostringstream default_text;
    if constexpr (std::is_arithmetic_v<T>) default_text << *out;
    const char* metavar = check == FlagCheck::kNonNegativeMs ? "MS"
                          : std::is_floating_point_v<V>      ? "F"
                                                             : "N";
    return Custom(
        name, metavar, help,
        [flag = "--" + std::string(name), out,
         check](std::string_view text) -> Status {
          const StatusOr<V> parsed = [&] {
            if constexpr (std::is_same_v<V, double>) {
              return ParseDouble(text, flag);
            } else if constexpr (std::is_same_v<V, size_t>) {
              return ParseSize(text, flag);
            } else {
              return ParseUint64(text, flag);
            }
          }();
          if (!parsed.ok()) return parsed.status();
          PINCER_RETURN_IF_ERROR(
              CheckFlagValue(check, flag, static_cast<double>(*parsed)));
          *out = *parsed;
          return Status::OK();
        },
        default_text.str());
  }

  /// `metavar` names the value in the usage ("FILE", "NAME").
  Flags& String(std::string_view name, std::string_view metavar,
                std::string* out, std::string_view help,
                FlagCheck check = FlagCheck::kNone);

  /// A bare `--name` that sets `*out` to true.
  Flags& Bool(std::string_view name, bool* out, std::string_view help) {
    return Custom(name, "", help, [out](std::string_view) {
      *out = true;
      return Status::OK();
    });
  }

  /// An enum field, or a std::optional of one (left empty unless the flag
  /// is given), read through its `parse`/`name_of` pair; the usage lists
  /// the names of `values`.
  template <typename T, typename E>
  Flags& Enum(std::string_view name, T* out,
              StatusOr<E> (*parse)(std::string_view),
              std::string_view (*name_of)(E),
              std::type_identity_t<std::span<const E>> values,
              std::string_view help) {
    std::string default_text;
    if constexpr (std::is_same_v<T, E>) default_text = name_of(*out);
    std::string choices;
    for (const E value : values) {
      if (!choices.empty()) choices += '|';
      choices += name_of(value);
    }
    return Custom(
        name, choices, help,
        [out, parse](std::string_view text) -> Status {
          StatusOr<E> parsed = parse(text);
          if (!parsed.ok()) return parsed.status();
          *out = *parsed;
          return Status::OK();
        },
        std::move(default_text));
  }

  /// The form every entry reduces to. An empty `metavar` makes the flag
  /// bare: it takes no value and `set` receives "".
  Flags& Custom(std::string_view name, std::string_view metavar,
                std::string_view help,
                std::function<Status(std::string_view)> set,
                std::string default_text = "");

  /// Applies `args` in order. Non-flag tokens go to `positionals`, or are
  /// an error when it is null. InvalidArgument names the first unknown
  /// flag, stray argument or rejected value.
  Status Parse(const std::vector<std::string>& args,
               std::vector<std::string>* positionals = nullptr) const;

  /// Parses argv[first, argc) with no positionals. On failure prints the
  /// reason and the usage to stderr and returns false (the caller exits 2).
  bool ParseArgv(int argc, char** argv, int first) const;

  /// One line per flag: name, value, help and default.
  std::string Usage() const;

  /// Prints Usage() to stderr and returns 2, the bad-usage exit status.
  int UsageError() const;

 private:
  struct Entry {
    std::string name, metavar, help, default_text;
    std::function<Status(std::string_view)> set;
  };

  std::string program_;
  std::string synopsis_;
  std::vector<Entry> entries_;
};

}  // namespace pincer

#endif  // PINCER_UTIL_FLAGS_H_
