#include "common/strings.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace rlscommon {
namespace {

TEST(SplitTest, BasicFields) {
  auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, KeepsEmptyFields) {
  auto parts = Split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitTest, EmptyInputYieldsOneEmptyField) {
  auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(TrimTest, StripsBothEnds) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(JoinTest, Basic) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(WildcardTest, ExactMatch) {
  EXPECT_TRUE(WildcardMatch("abc", "abc"));
  EXPECT_FALSE(WildcardMatch("abc", "abd"));
  EXPECT_FALSE(WildcardMatch("abc", "ab"));
}

TEST(WildcardTest, StarMatchesRuns) {
  EXPECT_TRUE(WildcardMatch("*", ""));
  EXPECT_TRUE(WildcardMatch("*", "anything"));
  EXPECT_TRUE(WildcardMatch("lfn://*", "lfn://ligo/file1"));
  EXPECT_TRUE(WildcardMatch("*.gwf", "H-R-123.gwf"));
  EXPECT_FALSE(WildcardMatch("*.gwf", "H-R-123.dat"));
}

TEST(WildcardTest, QuestionMatchesOne) {
  EXPECT_TRUE(WildcardMatch("a?c", "abc"));
  EXPECT_FALSE(WildcardMatch("a?c", "ac"));
  EXPECT_FALSE(WildcardMatch("a?c", "abbc"));
}

TEST(WildcardTest, MixedPatterns) {
  EXPECT_TRUE(WildcardMatch("lfn://*/run-00?/*", "lfn://exp/run-007/file42"));
  EXPECT_FALSE(WildcardMatch("lfn://*/run-00?/*", "lfn://exp/run-017/file42"));
  EXPECT_TRUE(WildcardMatch("a*b*c", "aXXbYYc"));
  EXPECT_FALSE(WildcardMatch("a*b*c", "aXXcYYb"));
}

TEST(WildcardTest, AdjacentStars) {
  EXPECT_TRUE(WildcardMatch("a**b", "ab"));
  EXPECT_TRUE(WildcardMatch("**", "x"));
  EXPECT_TRUE(WildcardMatch("a*", "a"));
}

// No exponential blowup on adversarial patterns (linear algorithm).
TEST(WildcardTest, PathologicalPatternTerminates) {
  std::string text(2000, 'a');
  std::string pattern;
  for (int i = 0; i < 50; ++i) pattern += "a*";
  pattern += "b";
  EXPECT_FALSE(WildcardMatch(pattern, text));
}

TEST(HasWildcardTest, DetectsMeta) {
  EXPECT_TRUE(HasWildcard("a*b"));
  EXPECT_TRUE(HasWildcard("a?b"));
  EXPECT_FALSE(HasWildcard("plain/name"));
}

TEST(LikeToGlobTest, TranslatesMeta) {
  EXPECT_EQ(LikeToGlob("%abc%"), "*abc*");
  EXPECT_EQ(LikeToGlob("a_c"), "a?c");
  EXPECT_EQ(LikeToGlob("plain"), "plain");
}

TEST(StartsEndsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("lfn://x", "lfn://"));
  EXPECT_FALSE(StartsWith("lf", "lfn://"));
  EXPECT_TRUE(EndsWith("file.gwf", ".gwf"));
  EXPECT_FALSE(EndsWith("gwf", ".gwf"));
}

// Property sweep: LIKE -> glob -> match agrees with direct glob semantics.
// The parameters are std::string, not const char*, so gtest prints their
// contents rather than their addresses and the discovered test names are
// the same on every build.
using LikeCase = std::pair<std::string, std::string>;
class LikeGlobProperty : public ::testing::TestWithParam<LikeCase> {};

TEST_P(LikeGlobProperty, RoundTripMatches) {
  auto [like, text] = GetParam();
  std::string glob = LikeToGlob(like);
  // Sanity: conversions never change length.
  EXPECT_EQ(glob.size(), like.size());
  // Matching is well-defined (no crash) and consistent when repeated.
  bool first = WildcardMatch(glob, text);
  EXPECT_EQ(first, WildcardMatch(glob, text));
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, LikeGlobProperty,
    ::testing::Values(LikeCase("%run%", "lfn://a/run-1/f"),
                      LikeCase("lfn%", "lfn://a"),
                      LikeCase("_fn%", "lfn://a"),
                      LikeCase("%", ""),
                      LikeCase("a_b", "axb")));

}  // namespace
}  // namespace rlscommon
