#include "common/flags.h"

#include <ostream>

namespace fairbc {

Status UnparsableValue(std::string_view label, std::string_view text) {
  return Status::InvalidArgument(std::string(label) +
                                 " has an unparsable value \"" +
                                 std::string(text) + "\"");
}

Status FlagParser::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) {
      return Status::InvalidArgument("bare '--' is not a valid flag");
    }
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      std::string name = body.substr(0, eq);
      if (name.empty()) {
        return Status::InvalidArgument("flag with empty name: " + arg);
      }
      values_[name] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";
    }
  }
  return Status::OK();
}

bool FlagParser::Has(const std::string& name) const {
  queried_[name] = true;
  return values_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  queried_[name] = true;
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

template <typename T>
T FlagParser::Get(const std::string& name, T default_value) const {
  queried_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const std::optional<T> value = ParseNumber<T>(it->second);
  if (!value) {
    bad_.insert(name);
    return default_value;
  }
  return *value;
}

std::int64_t FlagParser::GetInt(const std::string& name,
                                std::int64_t default_value) const {
  return Get(name, default_value);
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  return Get(name, default_value);
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  queried_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::string> FlagParser::UnusedFlags() const {
  std::vector<std::string> unused;
  for (const auto& [name, value] : values_) {
    if (queried_.count(name) == 0) unused.push_back(name);
  }
  return unused;
}

std::vector<std::string> FlagParser::BadFlags() const {
  return {bad_.begin(), bad_.end()};
}

bool FlagParser::ReportBadFlags(std::ostream& err) const {
  for (const std::string& name : bad_) {
    err << "error: "
        << UnparsableValue("--" + name, values_.at(name)).message() << "\n";
  }
  return !bad_.empty();
}

}  // namespace fairbc
