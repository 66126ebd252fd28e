// Tests for src/embedding: vectors, knowledge base, hashed models, zoo.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "embedding/column_embedder.h"
#include "embedding/hashed_model.h"
#include "embedding/knowledge_base.h"
#include "embedding/model_zoo.h"
#include "embedding/vector_ops.h"
#include "embedding/vocab.h"
#include "table/table.h"
#include "util/rng.h"

namespace lakefuzz {
namespace {

// ---------------------------------------------------------------- VectorOps

TEST(VectorOpsTest, DotAndNorm) {
  Vec a{3.0f, 4.0f};
  Vec b{1.0f, 0.0f};
  EXPECT_DOUBLE_EQ(Dot(a, b), 3.0);
  EXPECT_DOUBLE_EQ(Norm(a), 5.0);
}

TEST(VectorOpsTest, NormalizeInPlaceUnitNorm) {
  Vec v{3.0f, 4.0f};
  NormalizeInPlace(&v);
  EXPECT_NEAR(Norm(v), 1.0, 1e-6);
  Vec zero{0.0f, 0.0f};
  NormalizeInPlace(&zero);  // must not divide by zero
  EXPECT_DOUBLE_EQ(Norm(zero), 0.0);
}

TEST(VectorOpsTest, CosineSimilarityRange) {
  Vec a{1.0f, 0.0f};
  Vec b{0.0f, 1.0f};
  Vec c{-1.0f, 0.0f};
  EXPECT_NEAR(CosineSimilarity(a, a), 1.0, 1e-9);
  EXPECT_NEAR(CosineSimilarity(a, b), 0.0, 1e-9);
  EXPECT_NEAR(CosineSimilarity(a, c), -1.0, 1e-9);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, Vec{0.0f, 0.0f}), 0.0);
}

TEST(VectorOpsTest, CosineDistanceComplementsSimilarity) {
  Vec a{1.0f, 2.0f};
  Vec b{2.0f, 1.0f};
  EXPECT_NEAR(CosineDistance(a, b), 1.0 - CosineSimilarity(a, b), 1e-12);
  EXPECT_NEAR(CosineDistance(a, a), 0.0, 1e-9);
}

TEST(VectorOpsTest, DotPrenormalizedParityWithScalarDot) {
  // DotPrenormalized may take the AVX2+FMA kernel on capable hosts; it must
  // agree with the scalar Dot loop to rounding-order noise on every length
  // class (full 8-lane blocks, remainder tails, tiny and empty vectors).
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next_float = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<float>((state >> 33) % 2000) / 1000.0f - 1.0f;
  };
  for (size_t n : {0u, 1u, 3u, 7u, 8u, 9u, 15u, 16u, 64u, 127u, 768u}) {
    Vec a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = next_float();
      b[i] = next_float();
    }
    double scalar = Dot(a, b);
    double dispatched = DotPrenormalized(a, b);
    EXPECT_NEAR(dispatched, scalar, 1e-9 * (1.0 + std::abs(scalar)))
        << "dimension " << n;
  }
}

TEST(VectorOpsTest, CosineDistancePrenormalizedMatchesDefinition) {
  Vec a{0.6f, 0.8f, 0.0f};
  Vec b{0.0f, 0.6f, 0.8f};
  EXPECT_NEAR(CosineDistancePrenormalized(a, b), 1.0 - Dot(a, b), 1e-12);
}

TEST(VectorOpsTest, CosineDistanceBlockMatchesPerCellBitForBit) {
  // The blocked fill must write, for every shape, exactly the bits the
  // per-cell kernel returns: 2×2 blocks, leftover rows and columns, and
  // dimensions with and without a remainder past the last 8-float chunk.
  Rng rng(0xb10c);
  auto random_vector = [&rng](size_t dim, size_t kind) {
    Vec v(dim, 0.0f);
    if (kind == 0) return v;  // zero vector
    for (float& x : v) x = static_cast<float>(rng.UniformReal(-1.0, 1.0));
    if (kind == 1) NormalizeInPlace(&v);  // unit
    return v;  // kind 2: not unit
  };
  constexpr size_t kMax = 17;
  const size_t sizes[] = {0, 1, 2, 3, 5, 8, 17};
  for (size_t dim : {0u, 1u, 7u, 8u, 9u, 16u, 255u, 256u, 300u}) {
    std::vector<Vec> row_vecs, col_vecs;
    for (size_t i = 0; i < kMax; ++i) {
      // Mostly unit vectors, with zero and non-unit ones at varying
      // positions inside and outside the 2×2 blocks.
      const size_t row_kind = i % 5 == 3 ? 0 : (i % 4 == 2 ? 2 : 1);
      const size_t col_kind = i % 6 == 4 ? 0 : (i % 3 == 0 ? 2 : 1);
      row_vecs.push_back(random_vector(dim, row_kind));
      col_vecs.push_back(random_vector(dim, col_kind));
    }
    std::vector<const float*> row_ptrs, col_ptrs;
    for (const Vec& v : row_vecs) row_ptrs.push_back(v.data());
    for (const Vec& v : col_vecs) col_ptrs.push_back(v.data());
    for (size_t rows : sizes) {
      for (size_t cols : sizes) {
        // Two guard cells past the end catch a write outside the matrix.
        std::vector<double> out(rows * cols + 2, -7.0);
        CosineDistanceBlock(row_ptrs.data(), rows, col_ptrs.data(), cols, dim,
                            out.data());
        for (size_t r = 0; r < rows; ++r) {
          for (size_t c = 0; c < cols; ++c) {
            const double want =
                CosineDistancePrenormalized(row_vecs[r], col_vecs[c]);
            const double got = out[r * cols + c];
            uint64_t want_bits = 0, got_bits = 0;
            std::memcpy(&want_bits, &want, sizeof(want));
            std::memcpy(&got_bits, &got, sizeof(got));
            EXPECT_EQ(got_bits, want_bits)
                << "dim " << dim << ", " << rows << "x" << cols << " cell ("
                << r << ", " << c << "): " << got << " vs " << want;
          }
        }
        EXPECT_EQ(out[rows * cols], -7.0);
        EXPECT_EQ(out[rows * cols + 1], -7.0);
      }
    }
  }
}

TEST(VectorOpsTest, AddScaled) {
  Vec a{1.0f, 1.0f};
  AddScaled(&a, Vec{2.0f, 4.0f}, 0.5);
  EXPECT_FLOAT_EQ(a[0], 2.0f);
  EXPECT_FLOAT_EQ(a[1], 3.0f);
}

// ---------------------------------------------------------------- Vocab

TEST(VocabTest, TopicsPresentAndNonEmpty) {
  EXPECT_GE(BuiltinTopics().size(), 13u);
  for (const auto& t : BuiltinTopics()) {
    EXPECT_FALSE(t.groups.empty()) << t.topic;
  }
}

TEST(VocabTest, TopicByNameFindsCountries) {
  const TopicVocab& countries = TopicByName("countries");
  bool found_canada = false;
  for (const auto& g : countries.groups) {
    if (g.canonical == "Canada") {
      found_canada = true;
      EXPECT_NE(std::find(g.aliases.begin(), g.aliases.end(), "CA"),
                g.aliases.end());
    }
  }
  EXPECT_TRUE(found_canada);
}

TEST(VocabTest, NameListsNonEmpty) {
  EXPECT_GE(FirstNames().size(), 50u);
  EXPECT_GE(LastNames().size(), 50u);
  EXPECT_GE(CityNames().size(), 80u);
  EXPECT_GE(Nicknames().size(), 30u);
}

// ---------------------------------------------------------------- KB

TEST(KnowledgeBaseTest, BuiltInLooksUpAliases) {
  const KnowledgeBase& kb = KnowledgeBase::BuiltIn();
  auto canada = kb.Lookup("Canada");
  auto ca = kb.Lookup("CA");
  ASSERT_TRUE(canada.has_value());
  ASSERT_TRUE(ca.has_value());
  EXPECT_EQ(*canada, *ca);
  EXPECT_EQ(*canada, ConceptIdOf("Canada"));
}

TEST(KnowledgeBaseTest, LookupNormalizesSurface) {
  const KnowledgeBase& kb = KnowledgeBase::BuiltIn();
  EXPECT_EQ(kb.Lookup("  canada  "), kb.Lookup("Canada"));
}

TEST(KnowledgeBaseTest, DifferentConceptsDiffer) {
  const KnowledgeBase& kb = KnowledgeBase::BuiltIn();
  EXPECT_NE(kb.Lookup("Canada"), kb.Lookup("Germany"));
}

TEST(KnowledgeBaseTest, UnknownSurfaceIsNullopt) {
  EXPECT_FALSE(KnowledgeBase::BuiltIn().Lookup("zzz unknown zzz").has_value());
}

TEST(KnowledgeBaseTest, SubsetCoverageApproximatelyHolds) {
  const KnowledgeBase& kb = KnowledgeBase::BuiltIn();
  KnowledgeBase half = kb.Subset(0.5, 7);
  double ratio = static_cast<double>(half.size()) / kb.size();
  EXPECT_GT(ratio, 0.4);
  EXPECT_LT(ratio, 0.6);
  EXPECT_EQ(kb.Subset(0.0, 7).size(), 0u);
  EXPECT_EQ(kb.Subset(1.0, 7).size(), kb.size());
}

TEST(KnowledgeBaseTest, SubsetDeterministicPerSeed) {
  const KnowledgeBase& kb = KnowledgeBase::BuiltIn();
  EXPECT_EQ(kb.Subset(0.5, 9).size(), kb.Subset(0.5, 9).size());
  // Same seed → same membership (spot check via lookups).
  KnowledgeBase a = kb.Subset(0.5, 9);
  KnowledgeBase b = kb.Subset(0.5, 9);
  for (const char* probe : {"Canada", "CA", "Germany", "DE", "Spain", "ES"}) {
    EXPECT_EQ(a.Lookup(probe).has_value(), b.Lookup(probe).has_value());
  }
}

// ---------------------------------------------------------------- HashedModel

HashedModelConfig BaseConfig() {
  HashedModelConfig cfg;
  cfg.dim = 128;
  return cfg;
}

TEST(HashedModelTest, DeterministicUnitVectors) {
  HashedNgramModel model(BaseConfig());
  Vec a = model.Embed("Berlin");
  Vec b = model.Embed("Berlin");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 128u);
  EXPECT_NEAR(Norm(a), 1.0, 1e-5);
}

TEST(HashedModelTest, CaseInsensitiveByNormalization) {
  HashedNgramModel model(BaseConfig());
  EXPECT_NEAR(CosineDistance(model.Embed("Barcelona"),
                             model.Embed("barcelona")),
              0.0, 1e-6);
}

TEST(HashedModelTest, TypoCloserThanUnrelated) {
  HashedNgramModel model(BaseConfig());
  double typo = CosineDistance(model.Embed("Berlinn"), model.Embed("Berlin"));
  double unrelated =
      CosineDistance(model.Embed("Berlin"), model.Embed("Caracas"));
  EXPECT_LT(typo, 0.5);
  EXPECT_GT(unrelated, 0.7);
}

TEST(HashedModelTest, KnowledgeBasePullsAliasesTogether) {
  HashedModelConfig plain = BaseConfig();
  HashedNgramModel no_kb(plain);
  double without =
      CosineDistance(no_kb.Embed("Canada"), no_kb.Embed("CA"));

  HashedModelConfig with = BaseConfig();
  with.knowledge_base =
      std::make_shared<KnowledgeBase>(KnowledgeBase::BuiltIn());
  HashedNgramModel with_kb(with);
  double kb_dist =
      CosineDistance(with_kb.Embed("Canada"), with_kb.Embed("CA"));
  // "CA" is ambiguous (Canada | California), so it sits *between* the two
  // concepts — closer to Canada than without the KB, but not at distance 0.
  EXPECT_LT(kb_dist, 0.5);
  EXPECT_LT(kb_dist, without);
}

TEST(HashedModelTest, InitialsFeatureBridgesAcronyms) {
  HashedModelConfig off = BaseConfig();
  HashedModelConfig on = BaseConfig();
  on.use_initials_feature = true;
  HashedNgramModel moff(off), mon(on);
  double d_off =
      CosineDistance(moff.Embed("United States"), moff.Embed("US"));
  double d_on = CosineDistance(mon.Embed("United States"), mon.Embed("US"));
  EXPECT_LT(d_on, d_off);
}

TEST(HashedModelTest, NoiseDegradesButDeterministic) {
  HashedModelConfig noisy = BaseConfig();
  noisy.noise = 0.3;
  HashedNgramModel model(noisy);
  EXPECT_EQ(model.Embed("x"), model.Embed("x"));
  HashedNgramModel clean(BaseConfig());
  // Noise must push a typo pair further apart than the clean model does.
  double dn = CosineDistance(model.Embed("Berlinn"), model.Embed("Berlin"));
  double dc = CosineDistance(clean.Embed("Berlinn"), clean.Embed("Berlin"));
  EXPECT_GT(dn, dc);
}

TEST(HashedModelTest, SeedChangesSpace) {
  HashedModelConfig a = BaseConfig();
  HashedModelConfig b = BaseConfig();
  b.seed = a.seed ^ 0xdead;
  HashedNgramModel ma(a), mb(b);
  EXPECT_GT(CosineDistance(ma.Embed("Berlin"), mb.Embed("Berlin")), 0.2);
}

TEST(HashedModelTest, DegenerateConfigsClamped) {
  HashedModelConfig cfg;
  cfg.dim = 0;
  cfg.ngram_min = 0;
  cfg.ngram_max = 0;
  HashedNgramModel model(cfg);
  EXPECT_GE(model.dim(), 1u);
  EXPECT_EQ(model.Embed("x").size(), model.dim());
}

// ---------------------------------------------------------------- ModelZoo

TEST(ModelZooTest, AllKindsConstructWithNames) {
  for (ModelKind kind : AllModelKinds()) {
    auto model = MakeModel(kind, 64);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->name(), ModelKindToString(kind));
    EXPECT_EQ(model->dim(), 64u);
    EXPECT_EQ(model->Embed("probe").size(), 64u);
  }
}

TEST(ModelZooTest, KindNameRoundTrip) {
  for (ModelKind kind : AllModelKinds()) {
    auto parsed = ModelKindFromString(ModelKindToString(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(ModelKindFromString("GPT-7").ok());
}

TEST(ModelZooTest, MistralKnowsMoreAliasesThanFastText) {
  auto mistral = MakeModel(ModelKind::kMistral);
  auto fasttext = MakeModel(ModelKind::kFastText);
  // Aggregate alias distance over country-code pairs: the LLM-grade profile
  // must be markedly closer on average (it knows the alias dictionary).
  const TopicVocab& countries = TopicByName("countries");
  double sum_m = 0, sum_f = 0;
  size_t n = 0;
  for (size_t i = 0; i < countries.groups.size() && n < 20; ++i) {
    const auto& g = countries.groups[i];
    if (g.aliases.empty()) continue;
    sum_m += CosineDistance(mistral->Embed(g.canonical),
                            mistral->Embed(g.aliases[0]));
    sum_f += CosineDistance(fasttext->Embed(g.canonical),
                            fasttext->Embed(g.aliases[0]));
    ++n;
  }
  ASSERT_GT(n, 0u);
  EXPECT_LT(sum_m / n, sum_f / n - 0.2);
}

TEST(ModelZooTest, ModelsAreDeterministicAcrossInstances) {
  auto a = MakeModel(ModelKind::kBert);
  auto b = MakeModel(ModelKind::kBert);
  EXPECT_EQ(a->Embed("Toronto"), b->Embed("Toronto"));
}

// ---------------------------------------------------------------- ColumnEmbedder

TEST(ColumnEmbedderTest, SimilarContentColumnsCloserThanDifferent) {
  ColumnEmbedder embedder(
      std::make_shared<EmbeddingCache>(MakeModel(ModelKind::kMistral, 128)));
  Vec c1 = embedder.EmbedColumn({"Berlin", "Toronto", "Barcelona"});
  Vec c2 = embedder.EmbedColumn({"Berlin", "Boston", "Toronto"});
  Vec c3 = embedder.EmbedColumn({Value::Double(8.1).ToString(),
                                 Value::Double(3.3).ToString(),
                                 Value::Double(5.5).ToString()});
  EXPECT_GT(CosineSimilarity(c1, c2), CosineSimilarity(c1, c3) + 0.2);
}

TEST(ColumnEmbedderTest, AllNullColumnIsZeroVector) {
  ColumnEmbedder embedder(
      std::make_shared<EmbeddingCache>(MakeModel(ModelKind::kFastText, 64)));
  // An all-null column has no distinct values to pool.
  EXPECT_DOUBLE_EQ(Norm(embedder.EmbedColumn({})), 0.0);
}

}  // namespace
}  // namespace lakefuzz
