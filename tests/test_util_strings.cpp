// Tests for util/strings.hpp: parsing strictness and formatting round-trips.

#include "relap/util/strings.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ios>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "relap/util/rng.hpp"

namespace relap::util {
namespace {

TEST(Trim, Basics) {
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("a"), "a");
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim("\t x \t"), "x");
}

TEST(SplitWs, SkipsRuns) {
  EXPECT_TRUE(split_ws("").empty());
  EXPECT_TRUE(split_ws("   ").empty());
  const auto tokens = split_ws("  a \t b   c ");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[1], "b");
  EXPECT_EQ(tokens[2], "c");
}

TEST(Split, KeepsEmptyTokens) {
  const auto tokens = split("a,,b,", ',');
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[1], "");
  EXPECT_EQ(tokens[2], "b");
  EXPECT_EQ(tokens[3], "");
}

TEST(ParseDouble, StrictWholeToken) {
  EXPECT_EQ(parse_double("1.5"), 1.5);
  EXPECT_EQ(parse_double("-2"), -2.0);
  EXPECT_EQ(parse_double("1e3"), 1000.0);
  EXPECT_FALSE(parse_double("1.5x").has_value());
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("1.5 ").has_value());
}

TEST(ParseSize, StrictNonNegativeInteger) {
  EXPECT_EQ(parse_size("0"), 0u);
  EXPECT_EQ(parse_size("42"), 42u);
  EXPECT_FALSE(parse_size("-1").has_value());
  EXPECT_FALSE(parse_size("1.5").has_value());
  EXPECT_FALSE(parse_size("").has_value());
  EXPECT_FALSE(parse_size("4x").has_value());
}

TEST(FormatFixed, Decimals) {
  EXPECT_EQ(format_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(format_fixed(1.0, 3), "1.000");
  EXPECT_EQ(format_fixed(-0.5, 1), "-0.5");
}

bool round_trips_bitwise(double value) {
  const std::optional<double> parsed = parse_double(format_double(value));
  return parsed.has_value() &&
         std::bit_cast<std::uint64_t>(*parsed) == std::bit_cast<std::uint64_t>(value);
}

TEST(FormatDouble, RoundTripsBitForBit) {
  for (const double v : {0.0, -0.0, 1.0, -1.5, 0.1, 105.0, 1e-9, 123456.789, 0.64, 1e15, -1e15,
                         9007199254740992.0, -9007199254740994.0, DBL_MIN, -DBL_MIN, DBL_MAX,
                         -DBL_MAX, DBL_TRUE_MIN, 1e-310, -4.9e-320, 0x1p63, -0x1p63, 1e19}) {
    EXPECT_TRUE(round_trips_bitwise(v)) << format_double(v);
  }
}

TEST(FormatDouble, RoundTripsRandomBitPatterns) {
  // Every finite bit pattern is fair game: subnormals, huge exponents and
  // integers beyond 2^53 included.
  Rng rng(20260417);
  std::size_t checked = 0;
  while (checked < 100'000) {
    const double value = std::bit_cast<double>(rng());
    if (!std::isfinite(value)) continue;
    ASSERT_TRUE(round_trips_bitwise(value)) << std::hexfloat << value << " -> "
                                            << format_double(value);
    ++checked;
  }
  // Subnormals specifically: a random mantissa under the smallest exponent.
  for (int i = 0; i < 10'000; ++i) {
    const double value = std::bit_cast<double>(rng() & 0x800F'FFFF'FFFF'FFFFULL);
    ASSERT_TRUE(round_trips_bitwise(value)) << std::hexfloat << value;
  }
}

TEST(FormatDouble, RoundTripsEveryPowerOfTwo) {
  // A power of two's round-trip interval is lopsided (the gap below is half
  // the gap above), so the correctly rounded shortest-length string can
  // miss it; 46 of these need one more digit.
  for (int exponent = -1074; exponent <= 1023; ++exponent) {
    for (const double sign : {1.0, -1.0}) {
      const double value = sign * std::ldexp(1.0, exponent);
      ASSERT_TRUE(round_trips_bitwise(value)) << std::hexfloat << value;
    }
  }
}

TEST(FormatDouble, KnownAnswers) {
  // Protocol transcripts and instance files depend on this exact text; a
  // plain shortest `std::to_chars` would print 0.0001 as "1e-04".
  const std::pair<double, const char*> cases[] = {
      {100.0, "100"},
      {0.1, "0.1"},
      {1e-9, "1e-09"},
      {0.0001, "0.0001"},
      {1.5e-5, "1.5e-05"},
      {1e15, "1e+15"},
      {5e-324, "5e-324"},
      {0.1 + 0.2, "0.30000000000000004"},
      {1.0 / 3.0, "0.3333333333333333"},
      {9007199254740992.0, "9007199254740992"},
      {DBL_MIN, "2.2250738585072014e-308"},
      {-0.0, "-0"},
      {0.0, "0"},
      {-2.5, "-2.5"},
      {999999999999999.0, "999999999999999"},
      {0x1p63, "9.223372036854776e+18"},
      {std::numeric_limits<double>::infinity(), "inf"},
      {-std::numeric_limits<double>::infinity(), "-inf"},
      {std::numeric_limits<double>::quiet_NaN(), "nan"},
  };
  for (const auto& [value, text] : cases) EXPECT_EQ(format_double(value), text);
}

/// The printf-based formatter `format_double` replaced: the smallest
/// `%.{p}g` that sscanf reads back to the same value, integers as `%lld`.
std::string printf_format_double(double value) {
  if (value > -1e15 && value < 1e15 && value == std::trunc(value)) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%lld", static_cast<long long>(value));
    return buffer;
  }
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[64];
    std::snprintf(shorter, sizeof shorter, "%.*g", precision, value);
    double reparsed = 0.0;
    std::sscanf(shorter, "%lf", &reparsed);
    if (reparsed == value) return shorter;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

TEST(FormatDouble, MatchesPrintfTextExceptNegativeZero) {
  Rng rng(7);
  for (int i = 0; i < 5'000; ++i) {
    const double bits = std::bit_cast<double>(rng());
    const double decimal = static_cast<double>(rng.uniform_int(1'000'000)) /
                           std::pow(10.0, static_cast<double>(rng.uniform_int(12)));
    const double power_of_two = std::ldexp(1.0, static_cast<int>(rng.uniform_int(2098)) - 1074);
    for (const double value : {bits, decimal, power_of_two}) {
      if (!std::isfinite(value) || value == 0.0) continue;
      ASSERT_EQ(format_double(value), printf_format_double(value)) << std::hexfloat << value;
    }
  }
}

TEST(FormatGeneralAndFixed, MatchPrintf) {
  Rng rng(11);
  for (int i = 0; i < 20'000; ++i) {
    const double value = std::bit_cast<double>(rng());
    if (std::isnan(value)) continue;
    char expected[64];
    std::snprintf(expected, sizeof expected, "%.17g", value);
    ASSERT_EQ(format_general(value, 17), expected);
    const double millis = rng.uniform(0.0, 1e6);
    std::snprintf(expected, sizeof expected, "%.3f", millis);
    ASSERT_EQ(format_fixed(millis, 3), expected);
  }
  // The widest texts fit: sign, 309 integer digits, point, decimals.
  EXPECT_EQ(format_fixed(-DBL_MAX, 2).size(), 313U);
  EXPECT_EQ(format_fixed(-DBL_MAX, -1).size(), 317U);  // negative = printf's default 6
  EXPECT_EQ(format_fixed(0.5, -1), "0.500000");
}

TEST(Join, Basics) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
}

}  // namespace
}  // namespace relap::util
