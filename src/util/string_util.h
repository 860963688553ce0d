/**
 * @file
 * Minimal string helpers shared by the expression parser and the
 * benchmark harnesses.
 */

#ifndef CT_UTIL_STRING_UTIL_H
#define CT_UTIL_STRING_UTIL_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ct::util {

/** Strip ASCII whitespace from both ends. */
std::string_view trim(std::string_view s);

/** Split on a single character; keeps empty fields. */
std::vector<std::string> split(std::string_view s, char sep);

/** True if @p s begins with @p prefix. */
bool startsWith(std::string_view s, std::string_view prefix);

/** True if every character is an ASCII decimal digit (and non-empty). */
bool isAllDigits(std::string_view s);

/**
 * Parse @p s as a plain decimal integer in [@p lo, @p hi]: ASCII
 * digits only (no sign, whitespace or base prefix) and no overflow.
 * On failure returns false and leaves @p out untouched.
 */
bool parseDecimal(std::string_view s, std::uint64_t lo,
                  std::uint64_t hi, std::uint64_t &out);

} // namespace ct::util

#endif // CT_UTIL_STRING_UTIL_H
