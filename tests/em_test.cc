// Tests for src/em: row similarity, entity clustering, TID expansion.
#include <gtest/gtest.h>

#include "em/entity_matcher.h"
#include "embedding/model_zoo.h"

namespace lakefuzz {
namespace {

Value S(const char* s) { return Value::String(s); }

Table PeopleTable() {
  Table t("people", Schema::FromNames({"name", "city", "country"}));
  // Rows 0,1: same person with a typo; row 2: unrelated; row 3: homonym of
  // row 0 living elsewhere.
  EXPECT_TRUE(t.AppendRow({S("Robert Smith"), S("Boston"), S("US")}).ok());
  EXPECT_TRUE(t.AppendRow({S("Robert Smyth"), S("Boston"), S("US")}).ok());
  EXPECT_TRUE(t.AppendRow({S("Maria Garcia"), S("Madrid"), S("ES")}).ok());
  EXPECT_TRUE(t.AppendRow({S("Robert Smith"), S("Toronto"), S("CA")}).ok());
  return t;
}

TEST(EntityMatcherTest, RowSimilarityIdenticalRowsIsOne) {
  Table t = PeopleTable();
  EntityMatcher matcher;
  EXPECT_DOUBLE_EQ(matcher.RowSimilarity(t, 0, 0), 1.0);
}

TEST(EntityMatcherTest, RowSimilarityOrdersPairsSensibly) {
  Table t = PeopleTable();
  EntityMatcher matcher;
  double typo_pair = matcher.RowSimilarity(t, 0, 1);
  double homonym_pair = matcher.RowSimilarity(t, 0, 3);
  double unrelated = matcher.RowSimilarity(t, 0, 2);
  EXPECT_GT(typo_pair, homonym_pair);
  EXPECT_GT(homonym_pair, unrelated);
  EXPECT_GT(typo_pair, 0.9);
  EXPECT_LT(unrelated, 0.5);
}

TEST(EntityMatcherTest, MinOverlapGatesScore) {
  Table t("sparse", Schema::FromNames({"a", "b"}));
  ASSERT_TRUE(t.AppendRow({S("x"), Value::Null()}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null(), S("y")}).ok());
  EntityMatcherOptions opts;
  opts.min_overlap_columns = 1;
  EntityMatcher matcher(opts);
  EXPECT_DOUBLE_EQ(matcher.RowSimilarity(t, 0, 1), 0.0);  // no overlap at all
}

TEST(EntityMatcherTest, ClusterMergesTypoPairOnly) {
  Table t = PeopleTable();
  EntityMatcherOptions opts;
  opts.similarity_threshold = 0.9;
  EntityMatcher matcher(opts);
  auto clusters = matcher.Cluster(t);
  // {0,1} together; 2 alone; 3 alone (conflicting city/country drag the
  // homonym's mean similarity under the threshold).
  ASSERT_EQ(clusters.size(), 3u);
  EXPECT_EQ(clusters[0], (std::vector<size_t>{0, 1}));
}

TEST(EntityMatcherTest, EveryRowInExactlyOneCluster) {
  Table t = PeopleTable();
  EntityMatcher matcher;
  auto clusters = matcher.Cluster(t);
  std::vector<char> seen(t.NumRows(), 0);
  for (const auto& c : clusters) {
    for (size_t r : c) {
      EXPECT_LT(r, t.NumRows());
      EXPECT_EQ(seen[r], 0);
      seen[r] = 1;
    }
  }
  for (char s : seen) EXPECT_EQ(s, 1);
}

TEST(EntityMatcherTest, EmbeddingModeBridgesAliases) {
  // "USA" ↔ "United States": almost no surface overlap (string similarity
  // scores it low), but an unambiguous alias in the knowledge base.
  Table t("alias", Schema::FromNames({"name", "country"}));
  ASSERT_TRUE(t.AppendRow({S("Maria Garcia"), S("United States")}).ok());
  ASSERT_TRUE(t.AppendRow({S("Maria Garcia"), S("USA")}).ok());
  EntityMatcherOptions plain;
  plain.similarity_threshold = 0.85;
  double without = EntityMatcher(plain).RowSimilarity(t, 0, 1);

  EntityMatcherOptions with = plain;
  with.embeddings =
      std::make_shared<EmbeddingCache>(MakeModel(ModelKind::kMistral, 128));
  double with_model = EntityMatcher(with).RowSimilarity(t, 0, 1);
  EXPECT_GT(with_model, without);
}

TEST(EntityMatcherTest, EmptyTableYieldsNoClusters) {
  Table t("empty", Schema::FromNames({"a"}));
  EXPECT_TRUE(EntityMatcher().Cluster(t).empty());
}

TEST(ExpandClustersToTidsTest, UnionsAndDeduplicates) {
  std::vector<FdResultTuple> rows(3);
  rows[0].tids = {0, 5};
  rows[1].tids = {5, 7};
  rows[2].tids = {9};
  auto expanded = ExpandClustersToTids(rows, {{0, 1}, {2}});
  ASSERT_EQ(expanded.size(), 2u);
  EXPECT_EQ(expanded[0], (std::vector<uint64_t>{0, 5, 7}));
  EXPECT_EQ(expanded[1], (std::vector<uint64_t>{9}));
}

}  // namespace
}  // namespace lakefuzz
