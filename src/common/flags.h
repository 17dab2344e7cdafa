#ifndef FAIRBC_COMMON_FLAGS_H_
#define FAIRBC_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"

namespace fairbc {

/// Minimal command-line flag parser for the CLI tool and ad-hoc
/// experiment drivers. Accepts `--name=value`, `--name value` and bare
/// `--name` (boolean true); everything else is a positional argument.
class FlagParser {
 public:
  /// Parses argv; returns an error for malformed flags (empty names).
  Status Parse(int argc, const char* const* argv);

  bool Has(const std::string& name) const;

  /// Typed getters with defaults. A value that does not parse as the
  /// asked-for type falls back to the default and is recorded in
  /// BadFlags(), so a tool can refuse it instead of running on the
  /// default.
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

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
  mutable std::set<std::string> bad_;
  std::vector<std::string> positional_;
};

}  // namespace fairbc

#endif  // FAIRBC_COMMON_FLAGS_H_
