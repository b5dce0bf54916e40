#include "core/flags.h"

#include <algorithm>
#include <cstdlib>

#include "core/string_util.h"

namespace hygnn::core {

Status FlagParser::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--flag value` form; a flag at the end of the line is boolean true.
    if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";
    }
  }
  return Status::Ok();
}

Status FlagParser::RequireKnown(const std::vector<std::string>& known) const {
  for (const auto& [name, value] : values_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      return Status::InvalidArgument(
          "unrecognized flag --" + name +
          " (misspelled? run without flags for usage)");
    }
  }
  return Status::Ok();
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

int64_t FlagParser::GetInt(const std::string& name, int64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double FlagParser::GetDouble(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

bool FlagParser::GetBool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

bool EnvFlag(const std::string& name, bool fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr) return fallback;
  const std::string value(raw);
  if (value == "1" || value == "true" || value == "yes") return true;
  if (value == "0" || value == "false" || value == "no") return false;
  return fallback;
}

int64_t EnvInt(const std::string& name, int64_t fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const int64_t value = std::strtoll(raw, &end, 10);
  return (end == raw || *end != '\0') ? fallback : value;
}

std::string EnvString(const std::string& name, const std::string& fallback) {
  const char* raw = std::getenv(name.c_str());
  return (raw == nullptr || *raw == '\0') ? fallback : std::string(raw);
}

}  // namespace hygnn::core
