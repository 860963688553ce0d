#include "string_util.h"

#include <cctype>

namespace ct::util {

std::string_view
trim(std::string_view s)
{
    while (!s.empty() &&
           std::isspace(static_cast<unsigned char>(s.front())))
        s.remove_prefix(1);
    while (!s.empty() &&
           std::isspace(static_cast<unsigned char>(s.back())))
        s.remove_suffix(1);
    return s;
}

std::vector<std::string>
split(std::string_view s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == sep) {
            out.emplace_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.substr(0, prefix.size()) == prefix;
}

bool
isAllDigits(std::string_view s)
{
    if (s.empty())
        return false;
    for (char c : s)
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false;
    return true;
}

bool
parseDecimal(std::string_view s, std::uint64_t lo, std::uint64_t hi,
             std::uint64_t &out)
{
    if (!isAllDigits(s))
        return false;
    std::uint64_t v = 0;
    for (char c : s) {
        auto digit = static_cast<std::uint64_t>(c - '0');
        if (v > (UINT64_MAX - digit) / 10)
            return false;
        v = v * 10 + digit;
    }
    if (v < lo || v > hi)
        return false;
    out = v;
    return true;
}

} // namespace ct::util
