// Tests for src/match: holistic schema matching.
#include <gtest/gtest.h>

#include "embedding/model_zoo.h"
#include "fd_problems.h"
#include "match/schema_matcher.h"

namespace lakefuzz {
namespace {

Value S(const char* s) { return Value::String(s); }

std::shared_ptr<const EmbeddingCache> MistralMemo() {
  return std::make_shared<EmbeddingCache>(MakeModel(ModelKind::kMistral, 128));
}

std::vector<Table> CityTablesWithBadHeaders() {
  // Same content as the paper's setting: headers are unreliable (here:
  // different names per table), so alignment must come from the values.
  auto t1 = Table::FromRows("T1", {"City", "Country"},
                            {{S("Berlin"), S("Germany")},
                             {S("Toronto"), S("Canada")},
                             {S("Barcelona"), S("Spain")},
                             {S("Madrid"), S("Spain")}});
  auto t2 = Table::FromRows("T2", {"place", "nation"},
                            {{S("Toronto"), S("Canada")},
                             {S("Boston"), S("United States")},
                             {S("Berlin"), S("Germany")},
                             {S("Madrid"), S("Spain")}});
  EXPECT_TRUE(t1.ok() && t2.ok());
  return {std::move(t1).value(), std::move(t2).value()};
}

TEST(SchemaMatcherTest, AlignsByContentDespiteHeaders) {
  HolisticSchemaMatcher matcher(MistralMemo());
  auto tables = CityTablesWithBadHeaders();
  auto aligned = matcher.Align(TestEncoded(tables),
                               TestSessionDict()->dict());
  ASSERT_TRUE(aligned.ok());
  // City-like columns aligned; country-like columns aligned.
  EXPECT_EQ(aligned->column_map[0][0], aligned->column_map[1][0]);
  EXPECT_EQ(aligned->column_map[0][1], aligned->column_map[1][1]);
  EXPECT_NE(aligned->column_map[0][0], aligned->column_map[0][1]);
  EXPECT_EQ(aligned->NumUniversal(), 2u);
}

TEST(SchemaMatcherTest, NeverMergesColumnsOfOneTable) {
  HolisticSchemaMatcher matcher(MistralMemo());
  // Two near-identical columns inside one table must stay separate.
  auto t = Table::FromRows("T", {"a", "b"},
                           {{S("Berlin"), S("Berlin")},
                            {S("Toronto"), S("Toronto")}});
  ASSERT_TRUE(t.ok());
  auto aligned = matcher.Align(TestEncoded({*t}),
                               TestSessionDict()->dict());
  ASSERT_TRUE(aligned.ok());
  EXPECT_NE(aligned->column_map[0][0], aligned->column_map[0][1]);
}

TEST(SchemaMatcherTest, UnrelatedColumnsStaySeparate) {
  HolisticSchemaMatcher matcher(MistralMemo());
  auto t1 = Table::FromRows("T1", {"city"},
                            {{S("Berlin")}, {S("Toronto")}});
  auto t2 = Table::FromRows("T2", {"rating"},
                            {{Value::Double(8.5)}, {Value::Double(3.2)}});
  ASSERT_TRUE(t1.ok() && t2.ok());
  auto aligned = matcher.Align(TestEncoded({*t1, *t2}),
                               TestSessionDict()->dict());
  ASSERT_TRUE(aligned.ok());
  EXPECT_EQ(aligned->NumUniversal(), 2u);
}

TEST(SchemaMatcherTest, ThreeTablesTransitiveAlignment) {
  HolisticSchemaMatcher matcher(MistralMemo());
  // c1 and c3 share only one value (signature similarity below threshold),
  // but both overlap c2 heavily — the cluster must still close transitively.
  auto t1 = Table::FromRows("T1", {"c1"}, {{S("Berlin")}, {S("Paris")},
                                           {S("Toronto")}});
  auto t2 = Table::FromRows("T2", {"c2"}, {{S("Berlin")}, {S("Paris")},
                                           {S("Toronto")}, {S("Boston")}});
  auto t3 = Table::FromRows("T3", {"c3"}, {{S("Paris")}, {S("Toronto")},
                                           {S("Boston")}});
  ASSERT_TRUE(t1.ok() && t2.ok() && t3.ok());
  auto aligned = matcher.Align(TestEncoded({*t1, *t2, *t3}),
                               TestSessionDict()->dict());
  ASSERT_TRUE(aligned.ok());
  EXPECT_EQ(aligned->NumUniversal(), 1u);
  EXPECT_EQ(aligned->column_map[0][0], aligned->column_map[2][0]);
}

TEST(SchemaMatcherTest, UniversalNamesPreferMajorityHeader) {
  HolisticSchemaMatcher matcher(MistralMemo());
  auto t1 = Table::FromRows("T1", {"City"}, {{S("Berlin")}, {S("Toronto")}});
  auto t2 = Table::FromRows("T2", {"City"}, {{S("Toronto")}, {S("Boston")}});
  auto t3 = Table::FromRows("T3", {"location"},
                            {{S("Berlin")}, {S("Boston")}});
  ASSERT_TRUE(t1.ok() && t2.ok() && t3.ok());
  auto aligned = matcher.Align(TestEncoded({*t1, *t2, *t3}),
                               TestSessionDict()->dict());
  ASSERT_TRUE(aligned.ok());
  ASSERT_EQ(aligned->NumUniversal(), 1u);
  EXPECT_EQ(aligned->universal_names[0], "City");
}

TEST(SchemaMatcherTest, ResultValidates) {
  HolisticSchemaMatcher matcher(MistralMemo());
  const EncodedTables tables = TestEncoded(CityTablesWithBadHeaders());
  auto aligned = matcher.Align(tables, TestSessionDict()->dict());
  ASSERT_TRUE(aligned.ok());
  EXPECT_TRUE(ValidateAlignedSchema(*aligned, tables).ok());
}

TEST(SchemaMatcherTest, HigherThresholdSplitsClusters) {
  SchemaMatcherOptions strict;
  strict.similarity_threshold = 1.01;  // nothing can merge
  HolisticSchemaMatcher matcher(MistralMemo(), strict);
  auto tables = CityTablesWithBadHeaders();
  auto aligned = matcher.Align(TestEncoded(tables),
                               TestSessionDict()->dict());
  ASSERT_TRUE(aligned.ok());
  EXPECT_EQ(aligned->NumUniversal(), 4u);  // every column its own cluster
}

}  // namespace
}  // namespace lakefuzz
