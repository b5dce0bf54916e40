#ifndef HYGNN_CORE_FLAGS_H_
#define HYGNN_CORE_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/status.h"

namespace hygnn::core {

/// Minimal command-line flag parser for the bench/example binaries.
/// Accepts `--name value` and `--name=value`; anything else is a
/// positional argument.
class FlagParser {
 public:
  /// Parses argv. Returns InvalidArgument on a trailing `--name` with no
  /// value.
  Status Parse(int argc, const char* const* argv);

  /// Typed getters returning `fallback` when the flag is absent.
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  int64_t GetInt(const std::string& name, int64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

  /// Verifies every parsed `--flag` is in `known`, returning
  /// InvalidArgument naming the first stranger. Binaries call this after
  /// Parse so a typo'd flag (--resme for --resume) fails loudly instead
  /// of being silently ignored and changing behavior.
  Status RequireKnown(const std::vector<std::string>& known) const;

  /// Arguments that did not look like flags, in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Reads a boolean from the process environment: "1", "true", "yes"
/// (case-sensitive) enable, "0", "false", "no" disable, anything else
/// (including unset) yields `fallback`. Lets debug modes such as
/// HYGNN_NUMERICS_GUARD be switched on without plumbing a flag through
/// every entry point.
bool EnvFlag(const std::string& name, bool fallback);

/// Reads an integer from the process environment. Unset, empty, or
/// unparsable values yield `fallback`. Companion to EnvFlag for knobs
/// that carry a count rather than a switch (e.g. HYGNN_NUM_THREADS).
int64_t EnvInt(const std::string& name, int64_t fallback);

/// Reads a string from the process environment. Unset or empty values
/// yield `fallback`. Used for path-valued knobs such as HYGNN_METRICS
/// (the metrics JSONL output path).
std::string EnvString(const std::string& name, const std::string& fallback);

}  // namespace hygnn::core

#endif  // HYGNN_CORE_FLAGS_H_
