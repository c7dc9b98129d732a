/**
 * @file
 * FNV-1a hashing, shared by every component that keys on clear-text
 * material: the persistent unit-result cache and the serve-layer
 * query/result cache. One implementation so
 * the "hash of the key material, stored next to the material so a
 * collision reads as a miss" idiom stays byte-compatible across
 * layers.
 */

#ifndef SOLARCORE_UTIL_HASH_HPP
#define SOLARCORE_UTIL_HASH_HPP

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

namespace solarcore::util {

inline constexpr std::uint64_t kFnv1aOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ull;

/** Fold one byte into a running FNV-1a state. */
constexpr std::uint64_t
fnv1aByte(std::uint64_t h, unsigned char byte)
{
    return (h ^ byte) * kFnv1aPrime;
}

/** FNV-1a over @p text, continuing from @p seed. */
constexpr std::uint64_t
fnv1a(std::string_view text, std::uint64_t seed = kFnv1aOffset)
{
    std::uint64_t h = seed;
    for (const char c : text)
        h = fnv1aByte(h, static_cast<unsigned char>(c));
    return h;
}

/** Lower-case hex form of fnv1a(text) -- file stems, cache keys. */
inline std::string
fnv1aHex(std::string_view text, std::uint64_t seed = kFnv1aOffset)
{
    char buf[17];
    const auto r =
        std::to_chars(buf, buf + sizeof(buf), fnv1a(text, seed), 16);
    return std::string(buf, r.ptr);
}

} // namespace solarcore::util

#endif // SOLARCORE_UTIL_HASH_HPP
