// Robustness tests: adversarial CSV inputs, degenerate matcher inputs, and
// edge cases a data lake actually throws at an integration system.
#include <gtest/gtest.h>

#include "core/blocking.h"
#include "core/value_matcher.h"
#include "embedding/model_zoo.h"
#include "table/csv.h"
#include "table/print.h"
#include "fd/full_disjunction.h"
#include "fd_problems.h"

namespace lakefuzz {
namespace {

// ---------------------------------------------------------------- CSV

TEST(CsvRobustnessTest, HeaderOnlyFile) {
  auto r = ReadCsv("a,b,c\n", "t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NumRows(), 0u);
  EXPECT_EQ(r->NumColumns(), 3u);
}

TEST(CsvRobustnessTest, BareCarriageReturnLineEndings) {
  auto r = ReadCsv("a,b\r1,2\r3,4\r", "t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NumRows(), 2u);
  EXPECT_EQ(r->At(1, 1), Value::Int(4));
}

TEST(CsvRobustnessTest, TrailingDelimiterMakesEmptyField) {
  auto r = ReadCsv("a,b\n1,\n", "t");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->At(0, 1).is_null());
}

TEST(CsvRobustnessTest, QuotedEmptyStringIsNull) {
  // A quoted empty field carries no text; both spellings read back as null.
  auto r = ReadCsv("a,b\n\"\",x\n", "t");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->At(0, 0).is_null());
}

TEST(CsvRobustnessTest, VeryWideField) {
  std::string big(100000, 'x');
  auto r = ReadCsv("a\n" + big + "\n", "t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->At(0, 0).AsString().size(), big.size());
}

TEST(CsvRobustnessTest, ManyRowsRoundTrip) {
  std::string csv = "k,v\n";
  for (int i = 0; i < 5000; ++i) {
    csv += std::to_string(i) + ",val" + std::to_string(i) + "\n";
  }
  auto r = ReadCsv(csv, "t");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->NumRows(), 5000u);
  auto rt = ReadCsv(WriteCsv(*r), "t");
  ASSERT_TRUE(rt.ok());
  EXPECT_EQ(rt->NumRows(), 5000u);
  EXPECT_EQ(rt->At(4999, 1), Value::String("val4999"));
}

TEST(CsvRobustnessTest, Utf8ContentRoundTrips) {
  auto r = ReadCsv("city\nZürich\nСофия\n東京\n", "t");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->NumRows(), 3u);
  auto rt = ReadCsv(WriteCsv(*r), "t");
  ASSERT_TRUE(rt.ok());
  EXPECT_EQ(rt->At(0, 0), Value::String("Zürich"));
  EXPECT_EQ(rt->At(2, 0), Value::String("東京"));
}

// ---------------------------------------------------------------- Matcher

TEST(MatcherRobustnessTest, EmptyColumnsInSet) {
  ValueMatcherOptions opts;
  opts.model = MakeModel(ModelKind::kMistral, 64);
  ValueMatcher matcher(opts);
  auto r = matcher.MatchColumns({{}, {"Berlin"}, {}});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->groups.size(), 1u);
  EXPECT_EQ(r->groups[0].members[0],
            (std::pair<size_t, std::string>{1, "Berlin"}));
}

TEST(MatcherRobustnessTest, WildlyUnequalColumnSizes) {
  ValueMatcherOptions opts;
  opts.model = MakeModel(ModelKind::kMistral, 64);
  std::vector<std::string> big;
  for (int i = 0; i < 300; ++i) big.push_back("value_" + std::to_string(i));
  auto r = ValueMatcher(opts).MatchColumns({big, {"value_7"}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->groups.size(), 300u);
  EXPECT_EQ(r->stats.exact_matches, 1u);
}

TEST(MatcherRobustnessTest, WhitespaceOnlyValues) {
  ValueMatcherOptions opts;
  opts.model = MakeModel(ModelKind::kMistral, 64);
  auto r = ValueMatcher(opts).MatchColumns({{" ", "Berlin"}, {"  ", "x"}});
  ASSERT_TRUE(r.ok());  // must not crash; groups well-formed
  size_t members = 0;
  for (const auto& g : r->groups) members += g.members.size();
  EXPECT_EQ(members, 4u);
}

TEST(MatcherRobustnessTest, LongValuesDoNotBlowUp) {
  ValueMatcherOptions opts;
  opts.model = MakeModel(ModelKind::kMistral, 64);
  std::string long_a(5000, 'a');
  std::string long_b = long_a;
  long_b[2500] = 'b';
  auto r = ValueMatcher(opts).MatchColumns({{long_a}, {long_b}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->groups.size(), 1u);  // near-identical giants match
}

// ---------------------------------------------------------------- Blocking

TEST(BlockingRobustnessTest, EmptySidesYieldNoCandidates) {
  BlockingOptions opts;
  EXPECT_TRUE(GenerateCandidates({}, {"x"}, opts).empty());
  EXPECT_TRUE(GenerateCandidates({"x"}, {}, opts).empty());
  EXPECT_TRUE(GenerateCandidates({}, {}, opts).empty());
}

TEST(BlockingRobustnessTest, StopGramSuppressionCapsFanout) {
  // 200 values sharing one dominant trigram: postings above the frequency
  // cap are skipped, so the candidate count stays far below 200 × 200.
  std::vector<std::string> left, right;
  for (int i = 0; i < 200; ++i) {
    left.push_back("commonprefix_left_" + std::to_string(i));
    right.push_back("commonprefix_right_" + std::to_string(i));
  }
  BlockingOptions opts;
  auto pairs = GenerateCandidates(left, right, opts);
  EXPECT_LT(pairs.size(), 200u * 200u / 4);
}

// ---------------------------------------------------------------- Print / FD

TEST(PrintRobustnessTest, ZeroColumnTable) {
  Table t("empty", Schema());
  std::string s = RenderTable(t);
  EXPECT_NE(s.find("empty (0 rows x 0 cols)"), std::string::npos);
}

TEST(FdRobustnessTest, WideNullPaddedProblem) {
  // 40-column universal schema, tuples touching 2 columns each.
  std::vector<std::string> names;
  for (int c = 0; c < 40; ++c) names.push_back("c" + std::to_string(c));
  std::vector<Table> tables(3, Table("t", Schema::FromNames(names)));
  for (uint32_t t = 0; t < 30; ++t) {
    std::vector<Value> vals(40);
    vals[t % 40] = Value::String("k" + std::to_string(t % 5));
    vals[(t + 7) % 40] = Value::Int(t);
    ASSERT_TRUE(tables[t % 3].AppendRow(std::move(vals)).ok());
  }
  FdProblem problem = EncodedProblemByName(tables);
  auto result = FullDisjunction().Run(&problem);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->tuples.size(), 0u);
  EXPECT_LE(result->tuples.size(), 30u);
}

}  // namespace
}  // namespace lakefuzz
