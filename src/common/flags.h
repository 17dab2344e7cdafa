#ifndef FAIRBC_COMMON_FLAGS_H_
#define FAIRBC_COMMON_FLAGS_H_

#include <charconv>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace fairbc {

/// The number grammar of every text door (CLI flags, the line protocol):
/// all of `text` is one base-10 std::int64_t or double as std::from_chars
/// reads it, so a leading '+' or space, hex, trailing bytes or a value
/// out of T's range refuse. "nan" and "inf" parse; windows refuse them.
template <typename T>
std::optional<T> ParseNumber(std::string_view text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// The one message for a value ParseNumber refuses:
/// `LABEL has an unparsable value "TEXT"`.
Status UnparsableValue(std::string_view label, std::string_view text);

/// Minimal command-line flag parser for the CLI tool and ad-hoc
/// experiment drivers. Accepts `--name=value`, `--name value` and bare
/// `--name` (boolean true); everything else is a positional argument.
class FlagParser {
 public:
  /// Parses argv; returns an error for malformed flags (empty names).
  Status Parse(int argc, const char* const* argv);

  bool Has(const std::string& name) const;

  /// Typed getters with defaults. A value ParseNumber refuses falls back
  /// to the default and is recorded in BadFlags(), so a tool can refuse
  /// it instead of running on the default.
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  std::int64_t GetInt(const std::string& name,
                      std::int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags present on the command line but never queried; lets the CLI
  /// reject typos.
  std::vector<std::string> UnusedFlags() const;

  /// Flags whose value GetInt/GetDouble could not parse, in name order.
  std::vector<std::string> BadFlags() const;

  /// Prints `error: --NAME has an unparsable value "TEXT"` to `err` for
  /// each of BadFlags(); true when there was one. Tools call it after
  /// reading their flags, before they act.
  bool ReportBadFlags(std::ostream& err) const;

 private:
  template <typename T>
  T Get(const std::string& name, T default_value) const;

  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
  mutable std::set<std::string> bad_;
  std::vector<std::string> positional_;
};

}  // namespace fairbc

#endif  // FAIRBC_COMMON_FLAGS_H_
