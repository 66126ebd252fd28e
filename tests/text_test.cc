// Tests for src/text: normalization, tokenization, distances, acronyms.
#include <gtest/gtest.h>

#include <string>

#include "text/acronym.h"
#include "text/distance.h"
#include "text/normalize.h"
#include "text/tokenize.h"

namespace lakefuzz {
namespace {

// ---------------------------------------------------------------- Normalize

TEST(NormalizeTest, DefaultPipeline) {
  EXPECT_EQ(Normalize("  New-Delhi,  INDIA  "), "newdelhi india");
  EXPECT_EQ(Normalize("Berlin"), "berlin");
  EXPECT_EQ(Normalize(""), "");
}

TEST(NormalizeTest, KeepPunctuation) {
  NormalizeOptions opts;
  opts.strip_punctuation = false;
  EXPECT_EQ(Normalize("U.S.", opts), "u.s.");
}

TEST(NormalizeTest, NoCaseFold) {
  NormalizeOptions opts;
  opts.case_fold = false;
  opts.strip_punctuation = false;
  EXPECT_EQ(Normalize("Ab C", opts), "Ab C");
}

TEST(NormalizeTest, CollapseWhitespaceOnly) {
  NormalizeOptions opts;
  opts.case_fold = false;
  opts.strip_punctuation = false;
  EXPECT_EQ(Normalize("a   b\t\tc", opts), "a b c");
}

TEST(NormalizeTest, IdentityPresetKeepsPunctuationFoldsCase) {
  EXPECT_EQ(NormalizeForIdentity("  Berlin  "), "berlin");
  EXPECT_EQ(NormalizeForIdentity("U.S."), "u.s.");
  EXPECT_NE(NormalizeForIdentity("U.S."), NormalizeForIdentity("US"));
}

TEST(NormalizeTest, Utf8BytesPassThrough) {
  EXPECT_EQ(Normalize("Zürich"), "zürich");
}

// ---------------------------------------------------------------- Tokenize

TEST(TokenizeTest, WordTokensSplitOnNonAlnum) {
  EXPECT_EQ(WordTokens("New-Delhi, 2021!"),
            (std::vector<std::string>{"New", "Delhi", "2021"}));
  EXPECT_TRUE(WordTokens("...").empty());
  EXPECT_TRUE(WordTokens("").empty());
}

TEST(TokenizeTest, CharNgramsUnpadded) {
  EXPECT_EQ(CharNgrams("abcd", 2, /*pad=*/false),
            (std::vector<std::string>{"ab", "bc", "cd"}));
}

TEST(TokenizeTest, CharNgramsPaddedFrameBoundaries) {
  auto grams = CharNgrams("ab", 3, /*pad=*/true);
  // framed: \1\1ab\1\1 (6 chars) → 4 grams of length 3
  EXPECT_EQ(grams.size(), 4u);
  EXPECT_EQ(grams.front(), std::string("\x01\x01"
                                       "a"));
  EXPECT_EQ(grams.back(), std::string("b\x01\x01"));
}

TEST(TokenizeTest, ShortStringYieldsWhole) {
  auto grams = CharNgrams("ab", 5, /*pad=*/false);
  ASSERT_EQ(grams.size(), 1u);
  EXPECT_EQ(grams[0], "ab");
  EXPECT_TRUE(CharNgrams("", 3, false).empty());
}

// ---------------------------------------------------------------- Levenshtein

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(Levenshtein("kitten", "sitting"), 3u);
  EXPECT_EQ(Levenshtein("", "abc"), 3u);
  EXPECT_EQ(Levenshtein("abc", ""), 3u);
  EXPECT_EQ(Levenshtein("same", "same"), 0u);
  EXPECT_EQ(Levenshtein("Berlinn", "Berlin"), 1u);
  EXPECT_EQ(Levenshtein("ab", "ba"), 2u);  // a transposition costs two
}

TEST(LevenshteinTest, Symmetric) {
  EXPECT_EQ(Levenshtein("flaw", "lawn"), Levenshtein("lawn", "flaw"));
}

TEST(NormalizedLevenshteinTest, UnitRangeAndIdentity) {
  EXPECT_DOUBLE_EQ(NormalizedLevenshtein("", ""), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedLevenshtein("abc", "abc"), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedLevenshtein("abc", "xyz"), 1.0);
  double d = NormalizedLevenshtein("Berlinn", "Berlin");
  EXPECT_GT(d, 0.0);
  EXPECT_LT(d, 0.2);
}

// ---------------------------------------------------------------- Jaro

TEST(JaroTest, KnownValues) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "abc"), 1.0);
  EXPECT_NEAR(JaroSimilarity("MARTHA", "MARHTA"), 0.944, 0.001);
  EXPECT_NEAR(JaroSimilarity("DIXON", "DICKSONX"), 0.767, 0.001);
}

TEST(JaroWinklerTest, PrefixBoost) {
  double jw = JaroWinklerSimilarity("MARTHA", "MARHTA");
  EXPECT_NEAR(jw, 0.961, 0.001);
  EXPECT_GE(jw, JaroSimilarity("MARTHA", "MARHTA"));
}

TEST(JaroWinklerTest, NoBoostBelowThreshold) {
  double jaro = JaroSimilarity("abcdef", "uvwxyz");
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("abcdef", "uvwxyz"), jaro);
}

TEST(JaroWinklerTest, TypoPairsScoreHigh) {
  EXPECT_GT(JaroWinklerSimilarity("Berlinn", "Berlin"), 0.9);
  EXPECT_LT(JaroWinklerSimilarity("Berlin", "Toronto"), 0.6);
}

// ---------------------------------------------------------------- Set sims

TEST(NgramJaccardTest, Basics) {
  EXPECT_DOUBLE_EQ(NgramJaccard("", ""), 1.0);
  EXPECT_DOUBLE_EQ(NgramJaccard("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(NgramJaccard("abc", ""), 0.0);
  EXPECT_GT(NgramJaccard("Berlinn", "Berlin"), 0.4);
  EXPECT_LT(NgramJaccard("Berlin", "Madrid"), 0.1);
}

TEST(TokenJaccardTest, WordLevel) {
  EXPECT_DOUBLE_EQ(TokenJaccard("new delhi", "delhi new"), 1.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("a b", "c d"), 0.0);
  EXPECT_NEAR(TokenJaccard("a b c", "b c d"), 0.5, 1e-9);
}

// ------------------------------------------------- distance factory (A3)

class StringDistanceProperties
    : public ::testing::TestWithParam<StringDistanceKind> {};

TEST_P(StringDistanceProperties, IdentityIsZero) {
  auto dist = MakeStringDistance(GetParam());
  EXPECT_NEAR(dist("Berlin", "Berlin"), 0.0, 1e-12);
  EXPECT_NEAR(dist("", ""), 0.0, 1e-12);
}

TEST_P(StringDistanceProperties, SymmetricAndUnitBounded) {
  auto dist = MakeStringDistance(GetParam());
  const char* samples[] = {"Berlin", "Berlinn", "Toronto", "CA",
                           "United States", ""};
  for (const char* a : samples) {
    for (const char* b : samples) {
      double d1 = dist(a, b);
      double d2 = dist(b, a);
      EXPECT_NEAR(d1, d2, 1e-12) << a << " / " << b;
      EXPECT_GE(d1, 0.0);
      EXPECT_LE(d1, 1.0);
    }
  }
}

TEST_P(StringDistanceProperties, TypoCloserThanUnrelated) {
  auto dist = MakeStringDistance(GetParam());
  if (GetParam() == StringDistanceKind::kTokenJaccard) {
    // Token-level similarity cannot see sub-token typos: both pairs are
    // maximally distant; it must merely not invert the order.
    EXPECT_LE(dist("Berlinn", "Berlin"), dist("Berlin", "Caracas"));
  } else {
    EXPECT_LT(dist("Berlinn", "Berlin"), dist("Berlin", "Caracas"));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, StringDistanceProperties,
    ::testing::Values(StringDistanceKind::kNormalizedLevenshtein,
                      StringDistanceKind::kJaroWinkler,
                      StringDistanceKind::kNgramJaccard,
                      StringDistanceKind::kTokenJaccard),
    [](const ::testing::TestParamInfo<StringDistanceKind>& info) {
      // gtest names must be alnum/underscore only.
      std::string name(StringDistanceKindToString(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(StringDistanceFactoryTest, NamesMatchAblationRows) {
  // The row labels of ablation A3 (bench_ablation_distance).
  EXPECT_EQ(StringDistanceKindToString(
                StringDistanceKind::kNormalizedLevenshtein),
            "levenshtein");
  EXPECT_EQ(StringDistanceKindToString(StringDistanceKind::kJaroWinkler),
            "jaro-winkler");
  EXPECT_EQ(StringDistanceKindToString(StringDistanceKind::kNgramJaccard),
            "ngram-jaccard");
  EXPECT_EQ(StringDistanceKindToString(StringDistanceKind::kTokenJaccard),
            "token-jaccard");
}

// ---------------------------------------------------------------- Acronym

TEST(AcronymTest, Initials) {
  EXPECT_EQ(Initials("United States"), "us");
  EXPECT_EQ(Initials("New York City"), "nyc");
  EXPECT_EQ(Initials("single"), "s");
  EXPECT_EQ(Initials(""), "");
}

TEST(AcronymTest, IsAcronymOf) {
  EXPECT_TRUE(IsAcronymOf("US", "United States"));
  EXPECT_TRUE(IsAcronymOf("u.s.", "United States"));
  EXPECT_TRUE(IsAcronymOf("MIT", "Massachusetts Institute Technology"));
  EXPECT_FALSE(IsAcronymOf("US", "Uruguay"));        // single token phrase
  EXPECT_FALSE(IsAcronymOf("USA", "United States")); // length mismatch
  EXPECT_FALSE(IsAcronymOf("X", "X Y"));             // single-letter rejected
}

TEST(AcronymTest, IsAbbreviationOf) {
  EXPECT_TRUE(IsAbbreviationOf("Dept", "Department"));
  EXPECT_TRUE(IsAbbreviationOf("Dept.", "Department"));
  EXPECT_TRUE(IsAbbreviationOf("Mr", "Mister"));
  EXPECT_TRUE(IsAbbreviationOf("Inc", "Incorporated"));
  EXPECT_FALSE(IsAbbreviationOf("Department", "Dept"));  // wrong direction
  EXPECT_FALSE(IsAbbreviationOf("xyz", "Department"));
  EXPECT_FALSE(IsAbbreviationOf("D", "Department"));  // too short
}

TEST(AcronymTest, AffinitySymmetric) {
  EXPECT_DOUBLE_EQ(AcronymAffinity("US", "United States"), 1.0);
  EXPECT_DOUBLE_EQ(AcronymAffinity("United States", "US"), 1.0);
  EXPECT_DOUBLE_EQ(AcronymAffinity("Berlin", "Toronto"), 0.0);
}

}  // namespace
}  // namespace lakefuzz
