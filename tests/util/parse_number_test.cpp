/**
 * @file
 * Unit tests for util::parseNumber, the whole-token flag parser every
 * tool reads its numbers through.
 */

#include <cstddef>
#include <cstdint>

#include <gtest/gtest.h>

#include "util/parse_number.hpp"

namespace solarcore::util {
namespace {

TEST(ParseNumber, WholeTokensParse)
{
    EXPECT_EQ(parseNumber<int>("42"), 42);
    EXPECT_EQ(parseNumber<int>("0"), 0);
    EXPECT_EQ(parseNumber<std::uint16_t>("65535"), 65535);
    EXPECT_EQ(parseNumber<std::uint64_t>("18446744073709551615"),
              UINT64_MAX);
    EXPECT_EQ(parseNumber<double>("15"), 15.0);
    EXPECT_EQ(parseNumber<double>("0.25"), 0.25);
}

TEST(ParseNumber, EmptyStringIsRefused)
{
    EXPECT_FALSE(parseNumber<int>(""));
    EXPECT_FALSE(parseNumber<std::size_t>(""));
    EXPECT_FALSE(parseNumber<double>(""));
}

TEST(ParseNumber, SignsFollowTheType)
{
    // A count or a port has no sign; a real may be negative (callers
    // range-check it). A leading '+' is refused for every type.
    EXPECT_FALSE(parseNumber<int>("-3"));
    EXPECT_FALSE(parseNumber<int>("-0"));
    EXPECT_FALSE(parseNumber<std::uint64_t>("-1"));
    EXPECT_FALSE(parseNumber<int>("+3"));
    EXPECT_FALSE(parseNumber<double>("+3"));
    EXPECT_EQ(parseNumber<double>("-2.5"), -2.5);
}

TEST(ParseNumber, FractionOnlyForFloatingPoint)
{
    EXPECT_FALSE(parseNumber<int>("2.9"));
    EXPECT_FALSE(parseNumber<std::size_t>("2.0"));
    EXPECT_EQ(parseNumber<double>("2.9"), 2.9);
    EXPECT_EQ(parseNumber<double>(".5"), 0.5);
}

TEST(ParseNumber, ExponentOnlyForFloatingPoint)
{
    EXPECT_FALSE(parseNumber<int>("1e3"));
    EXPECT_FALSE(parseNumber<std::uint32_t>("1e10"));
    EXPECT_EQ(parseNumber<double>("1e3"), 1000.0);
    EXPECT_EQ(parseNumber<double>("2.5E-1"), 0.25);
}

TEST(ParseNumber, OverflowOfTheTypeIsRefused)
{
    // 2^32 + 2 must not wrap to 2, nor 70000 to port 4464.
    EXPECT_FALSE(parseNumber<int>("4294967298"));
    EXPECT_FALSE(parseNumber<int>("2147483648"));
    EXPECT_EQ(parseNumber<int>("2147483647"), 2147483647);
    EXPECT_FALSE(parseNumber<std::uint16_t>("70000"));
    EXPECT_FALSE(parseNumber<std::uint16_t>("65536"));
    EXPECT_FALSE(parseNumber<std::uint32_t>("4294967297"));
    EXPECT_FALSE(parseNumber<std::uint64_t>("18446744073709551616"));
    EXPECT_FALSE(parseNumber<double>("1e999"));
}

TEST(ParseNumber, NonFiniteIsRefused)
{
    for (const char *token : {"nan", "NaN", "-nan", "inf", "-inf",
                              "infinity", "INF"}) {
        SCOPED_TRACE(token);
        EXPECT_FALSE(parseNumber<double>(token));
        EXPECT_FALSE(parseNumber<float>(token));
        EXPECT_FALSE(parseNumber<int>(token));
    }
}

TEST(ParseNumber, TrailingGarbageIsRefused)
{
    EXPECT_FALSE(parseNumber<double>("15x"));
    EXPECT_FALSE(parseNumber<double>("15 "));
    EXPECT_FALSE(parseNumber<double>(" 15"));
    EXPECT_FALSE(parseNumber<int>("1x"));
    EXPECT_FALSE(parseNumber<std::size_t>("4,096"));
    EXPECT_FALSE(parseNumber<std::uint16_t>("80/tcp"));
    EXPECT_FALSE(parseNumber<double>("0x10"));
}

} // namespace
} // namespace solarcore::util
