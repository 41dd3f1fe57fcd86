#include "util/flags.h"

#include <algorithm>
#include <iostream>
#include <utility>

namespace pincer {

Status CheckFlagValue(FlagCheck check, const std::string& flag,
                      double value) {
  const char* need = nullptr;
  if (check == FlagCheck::kSupportFraction && !(value > 0 && value <= 1)) {
    need = " must be in (0, 1]";
  } else if (check == FlagCheck::kNonNegativeMs && !(value >= 0)) {
    need = " needs a number >= 0";
  } else if (check == FlagCheck::kPositive && !(value > 0)) {
    need = " needs a number > 0";
  } else if (check == FlagCheck::kPort && !(value <= 65535)) {
    need = " needs a number in [0, 65535]";
  }
  return need == nullptr ? Status::OK() : Status::InvalidArgument(flag + need);
}

Flags& Flags::String(std::string_view name, std::string_view metavar,
                     std::string* out, std::string_view help,
                     FlagCheck check) {
  return Custom(
      name, metavar, help,
      [flag = "--" + std::string(name), out,
       check](std::string_view text) -> Status {
        if (check == FlagCheck::kNonEmptyPath && text.empty()) {
          return Status::InvalidArgument(flag + " needs a file path");
        }
        *out = std::string(text);
        return Status::OK();
      },
      *out);
}

Flags& Flags::Custom(std::string_view name, std::string_view metavar,
                     std::string_view help,
                     std::function<Status(std::string_view)> set,
                     std::string default_text) {
  entries_.push_back({std::string(name), std::string(metavar),
                      std::string(help), std::move(default_text),
                      std::move(set)});
  return *this;
}

Status Flags::Parse(const std::vector<std::string>& args,
                    std::vector<std::string>* positionals) const {
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) != 0) {
      if (positionals == nullptr) {
        return Status::InvalidArgument("unexpected argument: " + arg);
      }
      positionals->push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const bool valued = eq != std::string::npos;
    const std::string name = arg.substr(2, valued ? eq - 2 : eq);
    const auto entry =
        std::find_if(entries_.begin(), entries_.end(),
                     [&name](const Entry& e) { return e.name == name; });
    if (entry == entries_.end()) {
      return Status::InvalidArgument("unknown flag: " + arg);
    }
    if (entry->metavar.empty() == valued) {
      return Status::InvalidArgument(
          "--" + name + (valued ? " takes no value" : " needs a value"));
    }
    PINCER_RETURN_IF_ERROR(
        entry->set(valued ? std::string_view(arg).substr(eq + 1) : ""));
  }
  return Status::OK();
}

bool Flags::ParseArgv(int argc, char** argv, int first) const {
  const Status status = Parse({argv + first, argv + argc});
  if (status.ok()) return true;
  std::cerr << program_ << ": " << status.message() << "\n";
  UsageError();
  return false;
}

std::string Flags::Usage() const {
  constexpr size_t kHelpColumn = 30;
  std::string usage = "usage: " + program_ +
                      (synopsis_.empty() ? "" : " " + synopsis_) +
                      " [flags]\n";
  for (const Entry& e : entries_) {
    std::string line =
        "  --" + e.name + (e.metavar.empty() ? "" : "=" + e.metavar);
    line += line.size() + 2 > kHelpColumn
                ? "\n" + std::string(kHelpColumn, ' ')
                : std::string(kHelpColumn - line.size(), ' ');
    const std::string tail =
        e.default_text.empty() ? "" : " (default " + e.default_text + ")";
    usage += line + e.help + tail + "\n";
  }
  return usage;
}

int Flags::UsageError() const {
  std::cerr << Usage();
  return 2;
}

}  // namespace pincer
