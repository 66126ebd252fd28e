// Tests for auto-threshold selection and table stats.
#include <gtest/gtest.h>

#include "core/auto_threshold.h"
#include "core/value_matcher.h"
#include "embedding/model_zoo.h"
#include "table/stats.h"

namespace lakefuzz {
namespace {

Value S(const char* s) { return Value::String(s); }

// ---------------------------------------------------------------- AutoTheta

TEST(AutoThresholdTest, FallsBackOnTinyInput) {
  AutoThresholdOptions opts;
  opts.fallback = 0.42;
  EXPECT_DOUBLE_EQ(SelectThresholdByGap({}, opts), 0.42);
  EXPECT_DOUBLE_EQ(SelectThresholdByGap({0.1, 0.9}, opts), 0.42);
}

TEST(AutoThresholdTest, FindsBimodalGap) {
  // Matches near 0.1-0.2, non-matches near 0.9-1.0 → θ in the gap.
  double theta = SelectThresholdByGap(
      {0.05, 0.1, 0.15, 0.2, 0.88, 0.92, 0.95, 1.0});
  EXPECT_GT(theta, 0.3);
  EXPECT_LT(theta, 0.9);
  EXPECT_NEAR(theta, 0.54, 0.01);  // midpoint of 0.2 and 0.88
}

TEST(AutoThresholdTest, UniformSpreadFallsBack) {
  std::vector<double> uniform;
  for (int i = 0; i <= 20; ++i) uniform.push_back(i / 20.0);
  AutoThresholdOptions opts;
  opts.fallback = 0.7;
  EXPECT_DOUBLE_EQ(SelectThresholdByGap(uniform, opts), 0.7);
}

TEST(AutoThresholdTest, GapOutsideWindowIgnored) {
  // Only gap sits at midpoint ~0.15, below the search window.
  AutoThresholdOptions opts;
  opts.min_threshold = 0.3;
  opts.fallback = 0.7;
  double theta =
      SelectThresholdByGap({0.01, 0.02, 0.28, 0.29, 0.30, 0.31}, opts);
  EXPECT_DOUBLE_EQ(theta, 0.7);
}

TEST(AutoThresholdTest, MatcherUsesPerInstanceTheta) {
  ValueMatcherOptions opts;
  opts.model = MakeModel(ModelKind::kMistral);
  opts.auto_threshold = true;
  opts.exact_match_prepass = false;  // force everything through the solver
  ValueMatcher matcher(opts);
  auto r = matcher.MatchColumns({
      {"Berlinn", "Toronto", "Barcelona", "New Delhi"},
      {"Toronto", "Boston", "Berlin", "Barcelona"},
  });
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->stats.thresholds_used.size(), 1u);
  // The selected θ separated the typo/exact pairs from the non-matches:
  // the same five groups as the fixed-θ run.
  EXPECT_EQ(r->groups.size(), 5u);
}

// ---------------------------------------------------------------- Stats

TEST(TableStatsTest, ComputesCounts) {
  Table t("t", Schema::FromNames({"x"}));
  ASSERT_TRUE(t.AppendRow({S("a")}).ok());
  ASSERT_TRUE(t.AppendRow({S("a")}).ok());
  ASSERT_TRUE(t.AppendRow({S("bbb")}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  ColumnStats stats = ComputeColumnStats(t, 0);
  EXPECT_EQ(stats.row_count, 4u);
  EXPECT_EQ(stats.null_count, 1u);
  EXPECT_EQ(stats.distinct_count, 2u);
  EXPECT_DOUBLE_EQ(stats.null_fraction(), 0.25);
  EXPECT_NEAR(stats.distinct_ratio(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(stats.mean_length, (1 + 1 + 3) / 3.0, 1e-12);
  EXPECT_EQ(stats.dominant_type(), ValueType::kString);
}

TEST(TableStatsTest, DominantTypeMixedColumn) {
  Table t("t", Schema::FromNames({"x"}));
  ASSERT_TRUE(t.AppendRow({Value::Int(1)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Int(2)}).ok());
  ASSERT_TRUE(t.AppendRow({S("three")}).ok());
  EXPECT_EQ(ComputeColumnStats(t, 0).dominant_type(), ValueType::kInt64);
}

TEST(TableStatsTest, AllNullColumn) {
  Table t("t", Schema::FromNames({"x"}));
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  ColumnStats stats = ComputeColumnStats(t, 0);
  EXPECT_EQ(stats.dominant_type(), ValueType::kNull);
  EXPECT_DOUBLE_EQ(stats.distinct_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(stats.mean_length, 0.0);
}

TEST(TableStatsTest, RenderMentionsKeyNumbers) {
  Table t("t", Schema::FromNames({"x"}));
  ASSERT_TRUE(t.AppendRow({S("v")}).ok());
  std::string s = RenderColumnStats(ComputeColumnStats(t, 0));
  EXPECT_NE(s.find("rows=1"), std::string::npos);
  EXPECT_NE(s.find("type=string"), std::string::npos);
}

}  // namespace
}  // namespace lakefuzz
