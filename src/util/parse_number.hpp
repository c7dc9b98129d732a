/**
 * @file
 * Whole-token numeric parsing for command-line flags, shared by every
 * tool so that no flag wraps, truncates or stops at trailing garbage.
 */

#ifndef SOLARCORE_UTIL_PARSE_NUMBER_HPP
#define SOLARCORE_UTIL_PARSE_NUMBER_HPP

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace solarcore::util {

/**
 * Parse the whole of @p text as a T with std::from_chars. A
 * floating-point T must be finite; an integral T must be a plain whole
 * number (no sign, fraction or exponent) that fits T. A leading '+' or
 * blank and trailing characters are refused; nullopt on refusal.
 */
template <typename T>
std::optional<T>
parseNumber(std::string_view text)
{
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
    if (std::is_integral_v<T> && text.starts_with('-'))
        return std::nullopt;
    T v{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || !std::isfinite(v))
        return std::nullopt;
    return v;
}

} // namespace solarcore::util

#endif // SOLARCORE_UTIL_PARSE_NUMBER_HPP
