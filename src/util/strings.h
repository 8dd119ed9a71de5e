// String helpers for CSV parsing and report formatting.
#ifndef VERITAS_UTIL_STRINGS_H_
#define VERITAS_UTIL_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace veritas {

/// Splits on a single-character delimiter. Keeps empty fields.
std::vector<std::string> Split(std::string_view text, char delim);

/// Removes leading and trailing ASCII whitespace.
std::string Trim(std::string_view text);

/// Joins parts with a separator.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Lowercases ASCII characters.
std::string ToLower(std::string_view text);

/// Formats a double with fixed precision (no trailing-garbage guarantee of
/// std::to_string).
std::string FormatDouble(double value, int precision);

/// `prefix` followed by the decimal `n` ("s", 3 -> "s3"). Built by
/// appending: GCC 12 at -O3 reports false -Wrestrict overlaps in the
/// inlined `"s" + std::to_string(n)`.
std::string NumberedName(std::string_view prefix, long long n);

}  // namespace veritas

#endif  // VERITAS_UTIL_STRINGS_H_
