#include <gtest/gtest.h>

#include "util/string_util.h"

namespace {

using namespace ct::util;

TEST(Trim, StripsBothEnds)
{
    EXPECT_EQ(trim("  abc  "), "abc");
    EXPECT_EQ(trim("abc"), "abc");
    EXPECT_EQ(trim("\t a b \n"), "a b");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
}

TEST(Split, KeepsEmptyFields)
{
    auto v = split("a,b,,c", ',');
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0], "a");
    EXPECT_EQ(v[2], "");
    EXPECT_EQ(v[3], "c");
}

TEST(Split, SingleField)
{
    auto v = split("abc", ',');
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0], "abc");
}

TEST(Split, TrailingSeparator)
{
    auto v = split("a,", ',');
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v[1], "");
}

TEST(StartsWith, Basics)
{
    EXPECT_TRUE(startsWith("Nadp@2", "Nadp"));
    EXPECT_FALSE(startsWith("Nd", "Nadp"));
    EXPECT_TRUE(startsWith("abc", ""));
}

TEST(IsAllDigits, Basics)
{
    EXPECT_TRUE(isAllDigits("0123"));
    EXPECT_FALSE(isAllDigits(""));
    EXPECT_FALSE(isAllDigits("12a"));
    EXPECT_FALSE(isAllDigits("-1"));
}

TEST(ParseDecimal, AcceptsDigitsInRange)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(parseDecimal("0", 0, 10, v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseDecimal("0042", 1, 100, v));
    EXPECT_EQ(v, 42u);
    EXPECT_TRUE(parseDecimal("18446744073709551615", 0, UINT64_MAX, v));
    EXPECT_EQ(v, UINT64_MAX);
}

TEST(ParseDecimal, RejectsSignsSpacesAndJunk)
{
    std::uint64_t v = 7;
    for (const char *text :
         {"", "-1", "+2", " 2", "2 ", "64abc", "0x10", "1e3", "1.5"})
        EXPECT_FALSE(parseDecimal(text, 0, UINT64_MAX, v)) << text;
    EXPECT_EQ(v, 7u);
}

TEST(ParseDecimal, RejectsOverflowAndOutOfRange)
{
    std::uint64_t v = 7;
    EXPECT_FALSE(parseDecimal("18446744073709551616", 0, UINT64_MAX, v));
    EXPECT_FALSE(parseDecimal("99999999999999999999999", 0, UINT64_MAX,
                              v));
    EXPECT_FALSE(parseDecimal("0", 1, 10, v));
    EXPECT_FALSE(parseDecimal("11", 1, 10, v));
    EXPECT_EQ(v, 7u);
}

} // namespace
