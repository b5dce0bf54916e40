#ifndef HYGNN_CORE_STRING_UTIL_H_
#define HYGNN_CORE_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace hygnn::core {

/// Splits `text` on `delimiter`. Empty fields are preserved;
/// splitting "" yields one empty field.
std::vector<std::string> Split(std::string_view text, char delimiter);

/// Joins `parts` with `delimiter`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view delimiter);

/// Removes leading and trailing ASCII whitespace.
std::string Trim(std::string_view text);

/// True when `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

}  // namespace hygnn::core

#endif  // HYGNN_CORE_STRING_UTIL_H_
