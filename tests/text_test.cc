// The shared text helpers (common/text.h): every route file, config,
// corpus file and tool flag is read through these.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "common/text.h"

namespace cluert {
namespace {

template <typename T>
class ParseNumberTest : public ::testing::Test {};

using NumberTypes =
    ::testing::Types<std::uint16_t, std::uint32_t, std::uint64_t, double>;
TYPED_TEST_SUITE(ParseNumberTest, NumberTypes);

TYPED_TEST(ParseNumberTest, ReadsDigitsOnly) {
  using T = TypeParam;
  EXPECT_EQ(parseNumber<T>("0"), T{0});
  EXPECT_EQ(parseNumber<T>("1"), T{1});
  EXPECT_EQ(parseNumber<T>("65535"), T{65535});
  for (const char* bad : {"", "+1", "-1", " 1", "1 ", "1x", "x1", "0x10"}) {
    EXPECT_FALSE(parseNumber<T>(bad).has_value()) << "'" << bad << "'";
  }
}

// The largest value reads back exactly; one past it is rejected.
template <typename T>
void expectMaxAndPastMax(const std::string& max, const std::string& past) {
  EXPECT_EQ(parseNumber<T>(max), std::numeric_limits<T>::max()) << max;
  EXPECT_FALSE(parseNumber<T>(past).has_value()) << past;
}

TEST(ParseNumber, MaxReadsBackAndMaxPlusOneIsRejected) {
  expectMaxAndPastMax<std::uint16_t>("65535", "65536");
  expectMaxAndPastMax<std::uint32_t>("4294967295", "4294967296");
  expectMaxAndPastMax<std::uint64_t>("18446744073709551615",
                                     "18446744073709551616");
  char max[64];
  std::snprintf(max, sizeof max, "%.17g", std::numeric_limits<double>::max());
  expectMaxAndPastMax<double>(max, "1e309");
}

TEST(ParseNumber, FloatingPointReadsFractionsButNoNonFinite) {
  EXPECT_EQ(parseNumber<double>("0.25"), 0.25);
  EXPECT_EQ(parseNumber<double>("1e3"), 1000.0);
  EXPECT_FALSE(parseNumber<double>("inf").has_value());
  EXPECT_FALSE(parseNumber<double>("nan").has_value());
  EXPECT_FALSE(parseNumber<double>("-0.5").has_value());
  EXPECT_FALSE(parseNumber<double>("0.5.").has_value());
  // An integer type reads no fraction.
  EXPECT_FALSE(parseNumber<std::uint32_t>("1.5").has_value());
}

TEST(ParseNumber, SignedTypesStillRejectASign) {
  EXPECT_EQ(parseNumber<int>("42"), 42);
  EXPECT_FALSE(parseNumber<int>("-42").has_value());
  EXPECT_FALSE(parseNumber<int>("2147483648").has_value());
}

// Bytes round-trip unchanged, and a missing file reads as nullopt.
TEST(Text, WriteFileThenReadFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "cluert_text_test.txt";
  const std::string body("line one\n\0binary\r\n", 18);
  ASSERT_TRUE(writeFile(path, body));
  EXPECT_EQ(readFile(path), body);
  std::remove(path.c_str());
  EXPECT_FALSE(readFile(path).has_value());
}

}  // namespace
}  // namespace cluert
