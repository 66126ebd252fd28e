// Tests for the durable lake catalog (src/catalog/): save → open round
// trips that reproduce Integrate / DiscoverUnionable byte-for-byte across
// thread counts, golden hash stability (the on-disk format's contract with
// Value::Hash / MinHash / LSH band keys), a corruption matrix that must
// degrade to typed errors instead of crashing, no-resurrection of dropped
// tables, and incremental checkpoints.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/engine.h"
#include "datagen/lake.h"
#include "discovery/column_sketch.h"
#include "discovery/lsh_index.h"
#include "util/hash.h"

namespace lakefuzz {
namespace {

Value S(const std::string& s) { return Value::String(s); }

/// Fresh per-test catalog directory under the gtest temp root.
std::string FreshDir(const std::string& tag) {
  std::string dir = testing::TempDir() + "/lakefuzz_catalog_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string PathOf(const std::string& dir, const char* file) {
  return dir + "/" + file;
}

/// Path of a generation's manifest. A fresh directory's first save commits
/// generation 1, which these tests rely on throughout.
std::string ManifestPath(const std::string& dir, uint64_t gen = 1) {
  return dir + "/" + CatalogManifestFileName(gen);
}

/// Path of a segment file at base `base` (1 after a fresh first save).
std::string SegmentPath(const std::string& dir, const char* stem,
                        uint64_t base = 1) {
  return dir + "/" + CatalogSegmentFileName(stem, base);
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Patches the manifest's trailing checksum so tampering with the body is
/// seen as *valid-but-different* content (exercising the semantic checks)
/// rather than tripping the integrity check first.
void FixupManifestChecksum(std::string* manifest) {
  ASSERT_GE(manifest->size(), sizeof(uint64_t));
  const uint64_t sum =
      Fnv1a64(manifest->data(), manifest->size() - sizeof(uint64_t));
  std::memcpy(&(*manifest)[manifest->size() - sizeof(uint64_t)], &sum,
              sizeof(sum));
}

std::vector<Table> SmallLake() {
  std::vector<Table> tables;
  auto t0 = Table::FromRows("cities", {"City", "Country"},
                            {{S("Berlin"), S("Germany")},
                             {S("Toronto"), S("Canada")},
                             {S("Lima"), S("Peru")},
                             {Value::Null(), S("Nowhere")}});
  auto t1 = Table::FromRows("rates", {"City", "VacRate"},
                            {{S("Berlin"), Value::Double(0.63)},
                             {S("Lima"), Value::Double(0.71)},
                             {S("Quito"), Value::Double(0.55)}});
  auto t2 = Table::FromRows("mayors", {"City", "Mayor", "Since"},
                            {{S("Toronto"), S("Olivia"), Value::Int(2023)},
                             {S("Quito"), S("Pabel"), Value::Int(2023)},
                             {S("Berlin"), S("Kai"), Value::Int(2024)}});
  EXPECT_TRUE(t0.ok() && t1.ok() && t2.ok());
  tables.push_back(std::move(t0).value());
  tables.push_back(std::move(t1).value());
  tables.push_back(std::move(t2).value());
  return tables;
}

std::unique_ptr<LakeEngine> MakeEngine(size_t threads) {
  auto engine = LakeEngine::Create(EngineOptions().SetNumThreads(threads));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

std::unique_ptr<LakeEngine> MakeEngineWithSmallLake(size_t threads) {
  auto engine = MakeEngine(threads);
  for (auto& t : SmallLake()) {
    EXPECT_TRUE(engine->RegisterTable(t.name(), t).ok());
  }
  return engine;
}

void ExpectTablesIdentical(const Table& a, const Table& b) {
  ASSERT_EQ(a.NumRows(), b.NumRows());
  ASSERT_EQ(a.NumColumns(), b.NumColumns());
  for (size_t c = 0; c < a.NumColumns(); ++c) {
    EXPECT_EQ(a.schema().field(c).name, b.schema().field(c).name);
  }
  for (size_t r = 0; r < a.NumRows(); ++r) {
    for (size_t c = 0; c < a.NumColumns(); ++c) {
      EXPECT_TRUE(a.At(r, c) == b.At(r, c))
          << "cell (" << r << "," << c << ")";
    }
  }
}

void ExpectSameCandidates(const std::vector<DiscoveryCandidate>& a,
                          const std::vector<DiscoveryCandidate>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name) << "rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;
    EXPECT_EQ(a[i].overlap, b[i].overlap) << "rank " << i;
    EXPECT_EQ(a[i].compat, b[i].compat) << "rank " << i;
  }
}

// ----------------------------------------------------------- round trips

/// The acceptance property: SaveCatalog then OpenCatalog in a fresh engine
/// yields byte-identical Integrate and DiscoverUnionable results vs the
/// writer engine, at 1 / 2 / 8 threads, with zero columns re-sketched.
TEST(CatalogRoundTripTest, IdenticalResultsAcrossThreadCounts) {
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string dir =
        FreshDir("roundtrip_t" + std::to_string(threads));
    const std::vector<std::string> names = {"cities", "rates", "mayors"};

    auto writer = MakeEngineWithSmallLake(threads);
    auto cold = writer->Integrate(names);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    auto cold_top = writer->DiscoverUnionable("cities", 2);
    ASSERT_TRUE(cold_top.ok());

    auto saved = writer->SaveCatalog(dir);
    ASSERT_TRUE(saved.ok()) << saved.status().ToString();
    EXPECT_FALSE(saved->incremental);
    EXPECT_EQ(saved->tables_written, 3u);
    // The writer's discovery index was synced, so the save persisted its
    // sketches as-is.
    EXPECT_EQ(saved->columns_resketched, 0u);

    auto reader = MakeEngine(threads);
    auto opened = reader->OpenCatalog(dir);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(opened->tables_loaded, 3u);
    EXPECT_EQ(opened->tables_kept, 0u);
    EXPECT_EQ(opened->columns_resketched, 0u);
    EXPECT_EQ(opened->values_loaded,
              writer->session_dict().NumDistinct());
    EXPECT_EQ(reader->discovery_index().num_tables(), 3u);

    // Warm requests must not re-intern anything: the dictionary was
    // replayed and every record was rebuilt from persisted codes.
    const uint64_t interned_after_open =
        reader->session_dict().stats().values_interned;
    auto warm = reader->Integrate(names);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    auto warm_top = reader->DiscoverUnionable("cities", 2);
    ASSERT_TRUE(warm_top.ok());
    EXPECT_EQ(reader->session_dict().stats().values_interned,
              interned_after_open);

    ExpectTablesIdentical(cold->integrated, warm->integrated);
    ExpectSameCandidates(*cold_top, *warm_top);
  }
}

TEST(CatalogRoundTripTest, GeneratedLakeSurvivesRestart) {
  const std::string dir = FreshDir("genlake");
  LakeOptions opts;
  opts.num_tables = 24;
  opts.num_groups = 4;
  opts.group_size = 3;
  opts.rows_per_table = 30;
  auto lake = GenerateLake(opts);

  auto writer = MakeEngine(2);
  for (const Table& t : lake.tables) {
    ASSERT_TRUE(writer->RegisterTable(t.name(), t).ok());
  }
  auto cold_top = writer->DiscoverUnionable(lake.groups[0][0], 4);
  ASSERT_TRUE(cold_top.ok());
  auto saved = writer->SaveCatalog(dir);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_EQ(saved->tables_written, lake.tables.size());

  auto reader = MakeEngine(2);
  auto opened = reader->OpenCatalog(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->tables_loaded, lake.tables.size());
  EXPECT_EQ(opened->columns_resketched, 0u);
  EXPECT_GT(opened->mapped_bytes, 0u);

  auto warm_top = reader->DiscoverUnionable(lake.groups[0][0], 4);
  ASSERT_TRUE(warm_top.ok());
  ExpectSameCandidates(*cold_top, *warm_top);
}

/// Opening into an engine that already holds one of the cataloged names
/// keeps the live table and loads the rest.
TEST(CatalogRoundTripTest, LiveTablesWinOverCatalog) {
  const std::string dir = FreshDir("livewins");
  auto writer = MakeEngineWithSmallLake(1);
  ASSERT_TRUE(writer->SaveCatalog(dir).ok());

  auto reader = MakeEngine(1);
  auto replacement = Table::FromRows("cities", {"City"}, {{S("Oslo")}});
  ASSERT_TRUE(replacement.ok());
  ASSERT_TRUE(
      reader->RegisterTable("cities", std::move(replacement).value()).ok());

  auto opened = reader->OpenCatalog(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->tables_kept, 1u);
  EXPECT_EQ(opened->tables_loaded, 2u);
  auto live = reader->Integrate({"cities"});
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live->integrated.NumRows(), 1u);  // the live Oslo table

  // The next save from this engine must rewrite (codes diverged from the
  // file's numbering) and persist the live view, not the stale catalog's.
  auto resaved = reader->SaveCatalog(dir);
  ASSERT_TRUE(resaved.ok()) << resaved.status().ToString();
  auto fresh = MakeEngine(1);
  ASSERT_TRUE(fresh->OpenCatalog(dir).ok());
  auto reloaded = fresh->Integrate({"cities"});
  ASSERT_TRUE(reloaded.ok());
  ExpectTablesIdentical(live->integrated, reloaded->integrated);
}

/// A record is named by its registry name, not by Table::name(): a
/// by-name alignment error names the same table before and after a
/// catalog round trip.
TEST(CatalogRoundTripTest, RecordIsNamedByItsRegistryName) {
  const std::string dir = FreshDir("registryname");
  Table repeats("x", Schema::FromNames({"k", "k"}));
  ASSERT_TRUE(repeats.AppendRow({S("v"), S("w")}).ok());
  RequestOptions by_name;
  by_name.holistic_alignment = false;
  const std::string expected = "table 'a' repeats column name 'k'";

  auto writer = MakeEngine(1);
  ASSERT_TRUE(writer->RegisterTable("a", repeats).ok());
  auto live = writer->Integrate({"a"}, by_name);
  EXPECT_EQ(live.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(live.status().message().find(expected), std::string::npos)
      << live.status().ToString();
  ASSERT_TRUE(writer->SaveCatalog(dir).ok());

  auto reader = MakeEngine(1);
  ASSERT_TRUE(reader->OpenCatalog(dir).ok());
  auto restarted = reader->Integrate({"a"}, by_name);
  EXPECT_EQ(restarted.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(restarted.status().message().find(expected), std::string::npos)
      << restarted.status().ToString();
}

// ------------------------------------------------------- incremental saves

TEST(CatalogIncrementalTest, SecondSaveAppendsOnly) {
  const std::string dir = FreshDir("incremental");
  auto engine = MakeEngineWithSmallLake(1);
  auto first = engine->SaveCatalog(dir);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->incremental);

  // No mutation in between: everything is reused, nothing is appended.
  auto noop = engine->SaveCatalog(dir);
  ASSERT_TRUE(noop.ok());
  EXPECT_TRUE(noop->incremental);
  EXPECT_EQ(noop->tables_reused, 3u);
  EXPECT_EQ(noop->tables_written, 0u);
  EXPECT_EQ(noop->values_appended, 0u);

  auto extra = Table::FromRows("extra", {"City", "Airport"},
                               {{S("Berlin"), S("BER")},
                                {S("Lima"), S("LIM")}});
  ASSERT_TRUE(extra.ok());
  ASSERT_TRUE(engine->RegisterTable("extra", std::move(extra).value()).ok());
  auto second = engine->SaveCatalog(dir);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->incremental);
  EXPECT_EQ(second->tables_reused, 3u);
  EXPECT_EQ(second->tables_written, 1u);
  EXPECT_GT(second->values_appended, 0u);   // "BER" / "LIM" are new
  EXPECT_EQ(second->columns_resketched, 0u);

  auto reader = MakeEngine(2);
  auto opened = reader->OpenCatalog(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->tables_loaded, 4u);
  auto a = engine->Integrate({"cities", "extra"});
  auto b = reader->Integrate({"cities", "extra"});
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectTablesIdentical(a->integrated, b->integrated);
}

/// Tampering with a segment file behind the engine's back invalidates the
/// incremental fast path — the save must detect the size mismatch and fall
/// back to a full rewrite instead of appending onto foreign bytes.
TEST(CatalogIncrementalTest, ExternallyGrownSegmentForcesRewrite) {
  const std::string dir = FreshDir("extgrown");
  auto engine = MakeEngineWithSmallLake(1);
  ASSERT_TRUE(engine->SaveCatalog(dir).ok());
  std::ofstream out(SegmentPath(dir, kCatalogValuesStem),
                    std::ios::binary | std::ios::app);
  out << "garbage";
  out.close();

  auto resaved = engine->SaveCatalog(dir);
  ASSERT_TRUE(resaved.ok()) << resaved.status().ToString();
  EXPECT_FALSE(resaved->incremental);
  auto reader = MakeEngine(1);
  EXPECT_TRUE(reader->OpenCatalog(dir).ok());
}

// -------------------------------------------------------- no resurrection

TEST(CatalogUnregisterTest, DroppedTableDoesNotResurrect) {
  const std::string dir = FreshDir("noresurrect");
  auto engine = MakeEngineWithSmallLake(1);
  ASSERT_TRUE(engine->SaveCatalog(dir).ok());

  ASSERT_TRUE(engine->Unregister("rates").ok());
  auto resaved = engine->SaveCatalog(dir);
  ASSERT_TRUE(resaved.ok()) << resaved.status().ToString();
  EXPECT_TRUE(resaved->incremental);
  EXPECT_EQ(resaved->tables_reused, 2u);

  auto reader = MakeEngine(1);
  auto opened = reader->OpenCatalog(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->tables_loaded, 2u);
  EXPECT_EQ(reader->NumTables(), 2u);
  EXPECT_EQ(reader->Integrate({"rates"}).code(), ErrorCode::kNotFound);
  EXPECT_EQ(reader->discovery_index().num_tables(), 2u);
}

TEST(CatalogUnregisterTest, ReRegisteredTableRefreshesFingerprint) {
  const std::string dir = FreshDir("refresh");
  auto engine = MakeEngineWithSmallLake(1);
  ASSERT_TRUE(engine->SaveCatalog(dir).ok());

  ASSERT_TRUE(engine->Unregister("rates").ok());
  auto changed = Table::FromRows("rates", {"City", "VacRate"},
                                 {{S("Berlin"), Value::Double(0.99)}});
  ASSERT_TRUE(changed.ok());
  ASSERT_TRUE(
      engine->RegisterTable("rates", std::move(changed).value()).ok());
  auto resaved = engine->SaveCatalog(dir);
  ASSERT_TRUE(resaved.ok()) << resaved.status().ToString();
  EXPECT_TRUE(resaved->incremental);
  // The changed table's fingerprint no longer matches: it is rewritten,
  // the untouched ones reuse their extents.
  EXPECT_EQ(resaved->tables_written, 1u);
  EXPECT_EQ(resaved->tables_reused, 2u);

  auto reader = MakeEngine(1);
  ASSERT_TRUE(reader->OpenCatalog(dir).ok());
  auto got = reader->Integrate({"rates"});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->integrated.NumRows(), 1u);
  EXPECT_TRUE(got->integrated.At(0, 1) == Value::Double(0.99));
}

// ------------------------------------------------ generations & retention

TEST(CatalogGenerationTest, GenerationsAdvanceAndCurrentTracksLatest) {
  const std::string dir = FreshDir("generations");
  auto engine = MakeEngineWithSmallLake(1);

  auto first = engine->SaveCatalog(dir);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->generation, 1u);
  EXPECT_EQ(first->base, 1u);
  auto current = CatalogCurrentGeneration(dir);
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(*current, 1u);

  auto second = engine->SaveCatalog(dir);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->generation, 2u);
  EXPECT_TRUE(second->incremental);
  EXPECT_EQ(second->base, 1u);  // incremental keeps the base segments
  current = CatalogCurrentGeneration(dir);
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(*current, 2u);
  EXPECT_EQ(engine->catalog_generation(), 2u);

  // Default retention keeps the newest two generations' manifests.
  EXPECT_TRUE(std::filesystem::exists(ManifestPath(dir, 1)));
  EXPECT_TRUE(std::filesystem::exists(ManifestPath(dir, 2)));

  auto third = engine->SaveCatalog(dir);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->generation, 3u);
  EXPECT_GE(third->generations_removed, 1u);
  EXPECT_FALSE(std::filesystem::exists(ManifestPath(dir, 1)));
  EXPECT_TRUE(std::filesystem::exists(ManifestPath(dir, 2)));
  EXPECT_TRUE(std::filesystem::exists(ManifestPath(dir, 3)));

  // Every committed generation still opens to the same lake.
  auto reader = MakeEngine(1);
  ASSERT_TRUE(reader->OpenCatalog(dir).ok());
  EXPECT_EQ(reader->catalog_generation(), 3u);
  EXPECT_EQ(reader->NumTables(), 3u);
}

TEST(CatalogGenerationTest, RetentionKnobTrimsOldGenerations) {
  const std::string dir = FreshDir("retention");
  auto engine = LakeEngine::Create(
      EngineOptions().SetNumThreads(1).SetCatalogRetainGenerations(1));
  ASSERT_TRUE(engine.ok());
  for (auto& t : SmallLake()) {
    ASSERT_TRUE((*engine)->RegisterTable(t.name(), t).ok());
  }
  ASSERT_TRUE((*engine)->SaveCatalog(dir).ok());
  auto second = (*engine)->SaveCatalog(dir);
  ASSERT_TRUE(second.ok());
  // retain=1: the moment generation 2 commits, generation 1's manifest is
  // unreferenced and removed.
  EXPECT_EQ(second->generations_removed, 1u);
  EXPECT_FALSE(std::filesystem::exists(ManifestPath(dir, 1)));
  EXPECT_TRUE(std::filesystem::exists(ManifestPath(dir, 2)));
  EXPECT_TRUE(MakeEngine(1)->OpenCatalog(dir).ok());
}

TEST(CatalogGenerationTest, RetentionKnobRejectsZero) {
  EXPECT_EQ(EngineOptions().SetCatalogRetainGenerations(0).Validate().code(),
            ErrorCode::kInvalidArgument);
}

TEST(CatalogGenerationTest, FullRewriteLeavesPriorBaseSegmentsIntact) {
  const std::string dir = FreshDir("immutableextents");
  auto writer = MakeEngineWithSmallLake(1);
  ASSERT_TRUE(writer->SaveCatalog(dir).ok());
  const std::string base1_values = ReadAll(SegmentPath(dir, kCatalogValuesStem));

  // A different engine saving to the same directory cannot reuse extents
  // (its dict numbering is its own) — it must full-rewrite under a NEW
  // base, never in place over segments generation 1 still references.
  auto other = MakeEngineWithSmallLake(1);
  auto resave = other->SaveCatalog(dir);
  ASSERT_TRUE(resave.ok()) << resave.status().ToString();
  EXPECT_FALSE(resave->incremental);
  EXPECT_EQ(resave->generation, 2u);
  EXPECT_EQ(resave->base, 2u);
  EXPECT_TRUE(
      std::filesystem::exists(SegmentPath(dir, kCatalogValuesStem, 2)));
  // Generation 1's segments were untouched while it was retained.
  EXPECT_EQ(ReadAll(SegmentPath(dir, kCatalogValuesStem, 1)), base1_values);
}

TEST(CatalogGenerationTest, MissingCurrentIsTypedError) {
  const std::string dir = FreshDir("nocurrent");
  ASSERT_TRUE(MakeEngineWithSmallLake(1)->SaveCatalog(dir).ok());
  std::filesystem::remove(PathOf(dir, kCatalogCurrentFile));
  auto reader = MakeEngine(1);
  auto opened = reader->OpenCatalog(dir);
  EXPECT_EQ(opened.code(), ErrorCode::kIoError);
  EXPECT_EQ(reader->NumTables(), 0u);
  EXPECT_EQ(CatalogCurrentGeneration(dir).code(), ErrorCode::kIoError);
}

TEST(CatalogGenerationTest, GarbageCurrentIsTypedError) {
  const std::string dir = FreshDir("badcurrent");
  ASSERT_TRUE(MakeEngineWithSmallLake(1)->SaveCatalog(dir).ok());
  for (const char* garbage : {"", "bogus", "LFCUR1 \n", "LFCUR1 12x\n",
                              "LFCUR1 0\n"}) {
    SCOPED_TRACE("CURRENT=\"" + std::string(garbage) + "\"");
    WriteAll(PathOf(dir, kCatalogCurrentFile), garbage);
    EXPECT_EQ(MakeEngine(1)->OpenCatalog(dir).code(), ErrorCode::kIoError);
  }
  // A CURRENT pointing at a generation with no manifest is equally typed.
  WriteAll(PathOf(dir, kCatalogCurrentFile), "LFCUR1 999\n");
  EXPECT_EQ(MakeEngine(1)->OpenCatalog(dir).code(), ErrorCode::kIoError);
}

// ------------------------------------------------------ corruption matrix

TEST(CatalogCorruptionTest, MissingDirectoryIsIoError) {
  auto engine = MakeEngine(1);
  auto opened = engine->OpenCatalog(FreshDir("missing"));
  EXPECT_EQ(opened.code(), ErrorCode::kIoError);
  EXPECT_EQ(engine->catalog_stats().open_failures, 1u);
  // The engine stays fully usable — degrade to a cold rebuild.
  for (auto& t : SmallLake()) {
    EXPECT_TRUE(engine->RegisterTable(t.name(), t).ok());
  }
  EXPECT_TRUE(engine->Integrate({"cities", "rates"}).ok());
}

TEST(CatalogCorruptionTest, TruncatedManifestIsIoError) {
  const std::string dir = FreshDir("truncmanifest");
  ASSERT_TRUE(MakeEngineWithSmallLake(1)->SaveCatalog(dir).ok());
  std::string manifest = ReadAll(ManifestPath(dir));
  WriteAll(ManifestPath(dir), manifest.substr(0, 10));

  auto opened = MakeEngine(1)->OpenCatalog(dir);
  EXPECT_EQ(opened.code(), ErrorCode::kIoError);
}

TEST(CatalogCorruptionTest, BadMagicIsInvalidArgument) {
  const std::string dir = FreshDir("badmagic");
  ASSERT_TRUE(MakeEngineWithSmallLake(1)->SaveCatalog(dir).ok());
  std::string manifest = ReadAll(ManifestPath(dir));
  manifest[0] = 'X';
  FixupManifestChecksum(&manifest);  // semantic error, not integrity error
  WriteAll(ManifestPath(dir), manifest);

  auto opened = MakeEngine(1)->OpenCatalog(dir);
  EXPECT_EQ(opened.code(), ErrorCode::kInvalidArgument);
}

TEST(CatalogCorruptionTest, FormatVersionSkewIsInvalidArgument) {
  const std::string dir = FreshDir("verskew");
  ASSERT_TRUE(MakeEngineWithSmallLake(1)->SaveCatalog(dir).ok());
  std::string manifest = ReadAll(ManifestPath(dir));
  const uint32_t future_version = kCatalogFormatVersion + 7;
  std::memcpy(&manifest[sizeof(kCatalogMagic)], &future_version,
              sizeof(future_version));
  FixupManifestChecksum(&manifest);
  WriteAll(ManifestPath(dir), manifest);

  auto opened = MakeEngine(1)->OpenCatalog(dir);
  EXPECT_EQ(opened.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(opened.status().message().find("version"), std::string::npos);
}

TEST(CatalogCorruptionTest, BitFlipInManifestIsIoError) {
  const std::string dir = FreshDir("bitflip");
  ASSERT_TRUE(MakeEngineWithSmallLake(1)->SaveCatalog(dir).ok());
  std::string manifest = ReadAll(ManifestPath(dir));
  manifest[manifest.size() / 2] ^= 0x40;  // body flip, checksum NOT fixed
  WriteAll(ManifestPath(dir), manifest);

  auto opened = MakeEngine(1)->OpenCatalog(dir);
  EXPECT_EQ(opened.code(), ErrorCode::kIoError);
}

TEST(CatalogCorruptionTest, TruncatedSegmentIsIoError) {
  const std::string dir = FreshDir("truncseg");
  ASSERT_TRUE(MakeEngineWithSmallLake(1)->SaveCatalog(dir).ok());
  for (const char* stem : {kCatalogValuesStem, kCatalogHashesStem,
                           kCatalogTablesStem, kCatalogSketchesStem}) {
    SCOPED_TRACE(stem);
    const std::string path = SegmentPath(dir, stem);
    const std::string bytes = ReadAll(path);
    ASSERT_GT(bytes.size(), 4u);
    WriteAll(path, bytes.substr(0, bytes.size() / 2));

    auto reader = MakeEngine(1);
    auto opened = reader->OpenCatalog(dir);
    EXPECT_EQ(opened.code(), ErrorCode::kIoError);
    // Nothing half-loaded: the registry is untouched after the failure.
    EXPECT_EQ(reader->NumTables(), 0u);
    WriteAll(path, bytes);  // restore for the next round
  }
  // With every segment restored, the catalog opens again.
  EXPECT_TRUE(MakeEngine(1)->OpenCatalog(dir).ok());
}

TEST(CatalogCorruptionTest, SegmentBitFlipIsIoError) {
  const std::string dir = FreshDir("segflip");
  ASSERT_TRUE(MakeEngineWithSmallLake(1)->SaveCatalog(dir).ok());
  std::string bytes = ReadAll(SegmentPath(dir, kCatalogValuesStem));
  bytes[bytes.size() / 3] ^= 0x01;
  WriteAll(SegmentPath(dir, kCatalogValuesStem), bytes);

  auto opened = MakeEngine(1)->OpenCatalog(dir);
  EXPECT_EQ(opened.code(), ErrorCode::kIoError);
}

/// Bytes past the committed prefix are an aborted append, not corruption:
/// the prefix checksum ignores them and the catalog still opens.
TEST(CatalogCorruptionTest, TrailingGarbageAfterCommittedPrefixIsIgnored) {
  const std::string dir = FreshDir("trailing");
  auto writer = MakeEngineWithSmallLake(1);
  ASSERT_TRUE(writer->SaveCatalog(dir).ok());
  for (const char* stem : {kCatalogValuesStem, kCatalogHashesStem,
                           kCatalogTablesStem, kCatalogSketchesStem}) {
    std::ofstream out(SegmentPath(dir, stem),
                      std::ios::binary | std::ios::app);
    out << "crashed-append-tail";
  }
  auto reader = MakeEngine(1);
  auto opened = reader->OpenCatalog(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->tables_loaded, 3u);
}

/// A manifest entry and its table block that agree on a huge column count,
/// with every checksum recomputed: the count passes the integrity checks
/// and the entry/block match, so only the bound against the block's bytes
/// stands between it and a multi-gigabyte allocation.
TEST(CatalogCorruptionTest, HugeColumnCountIsIoError) {
  const std::string dir = FreshDir("hugecols");
  ASSERT_TRUE(MakeEngineWithSmallLake(1)->SaveCatalog(dir).ok());
  std::string manifest = ReadAll(ManifestPath(dir));
  // Manifest layout: magic, format version and endian check (16 bytes);
  // generation, base, signature size, bands, rows per band, seed and value
  // count (7 x 8); (size, checksum) of the values, hashes, tables and
  // sketches segments (4 x 16); the table count (8); then the entries.
  constexpr size_t kTablesSegmentOff = 16 + 7 * 8 + 2 * 16;
  constexpr size_t kFirstEntryOff = 16 + 7 * 8 + 4 * 16 + 8;
  uint32_t name_len = 0;
  std::memcpy(&name_len, &manifest[kFirstEntryOff], sizeof(name_len));
  // Entry: name, fingerprint, rows, cols, table offset, ...
  const size_t cols_off = kFirstEntryOff + 4 + name_len + 8 + 8;
  uint64_t table_off = 0;
  std::memcpy(&table_off, &manifest[cols_off + 4], sizeof(table_off));
  const uint32_t huge = 0x7fffffff;
  std::memcpy(&manifest[cols_off], &huge, sizeof(huge));

  // A table block starts with its column count.
  const std::string tables_path = SegmentPath(dir, kCatalogTablesStem);
  std::string tables = ReadAll(tables_path);
  ASSERT_LT(table_off + sizeof(huge), tables.size());
  std::memcpy(&tables[table_off], &huge, sizeof(huge));
  WriteAll(tables_path, tables);
  uint64_t tables_size = 0;
  std::memcpy(&tables_size, &manifest[kTablesSegmentOff],
              sizeof(tables_size));
  ASSERT_EQ(tables_size, tables.size());
  const uint64_t tables_checksum = Fnv1a64(tables.data(), tables.size());
  std::memcpy(&manifest[kTablesSegmentOff + 8], &tables_checksum,
              sizeof(tables_checksum));
  FixupManifestChecksum(&manifest);
  WriteAll(ManifestPath(dir), manifest);

  auto reader = MakeEngine(1);
  auto opened = reader->OpenCatalog(dir);
  EXPECT_EQ(opened.code(), ErrorCode::kIoError);
  EXPECT_EQ(reader->NumTables(), 0u);
}

/// A table block whose first field's type tag is past ValueType::kBool,
/// with every checksum recomputed: the open refuses it instead of storing
/// a type no reader knows (the next save would write it back).
TEST(CatalogCorruptionTest, UnknownFieldTypeIsIoError) {
  const std::string dir = FreshDir("fieldtype");
  ASSERT_TRUE(MakeEngineWithSmallLake(1)->SaveCatalog(dir).ok());
  std::string manifest = ReadAll(ManifestPath(dir));
  // Same layout as HugeColumnCountIsIoError.
  constexpr size_t kTablesSegmentOff = 16 + 7 * 8 + 2 * 16;
  constexpr size_t kFirstEntryOff = 16 + 7 * 8 + 4 * 16 + 8;
  uint32_t entry_name_len = 0;
  std::memcpy(&entry_name_len, &manifest[kFirstEntryOff],
              sizeof(entry_name_len));
  // Entry: name, fingerprint, rows, cols, table offset, ...
  const size_t cols_off = kFirstEntryOff + 4 + entry_name_len + 8 + 8;
  uint64_t table_off = 0;
  std::memcpy(&table_off, &manifest[cols_off + 4], sizeof(table_off));

  // A table block: column count, row count, then each field's name and
  // type byte.
  const std::string tables_path = SegmentPath(dir, kCatalogTablesStem);
  std::string tables = ReadAll(tables_path);
  uint32_t name_len = 0;
  ASSERT_LE(table_off + 4 + 8 + sizeof(name_len), tables.size());
  std::memcpy(&name_len, &tables[table_off + 4 + 8], sizeof(name_len));
  const size_t type_off = table_off + 4 + 8 + 4 + name_len;
  ASSERT_LT(type_off, tables.size());
  tables[type_off] = static_cast<char>(200);
  WriteAll(tables_path, tables);
  const uint64_t tables_checksum = Fnv1a64(tables.data(), tables.size());
  std::memcpy(&manifest[kTablesSegmentOff + 8], &tables_checksum,
              sizeof(tables_checksum));
  FixupManifestChecksum(&manifest);
  WriteAll(ManifestPath(dir), manifest);

  auto reader = MakeEngine(1);
  auto opened = reader->OpenCatalog(dir);
  EXPECT_EQ(opened.code(), ErrorCode::kIoError);
  EXPECT_EQ(reader->NumTables(), 0u);
}

/// A zero-column table whose manifest entry and table block agree on a
/// huge row count, with every checksum recomputed. The column spans are
/// what bound the row count by the block's bytes, and a table without
/// columns has none: only the zero-column check rejects the count (a
/// record without columns has no rows).
TEST(CatalogCorruptionTest, ZeroColumnRowCountIsIoError) {
  const std::string dir = FreshDir("zerocolrows");
  {
    auto writer = MakeEngine(1);
    ASSERT_TRUE(writer->RegisterTable("z", Table("z", Schema())).ok());
    ASSERT_TRUE(writer->SaveCatalog(dir).ok());
  }
  std::string manifest = ReadAll(ManifestPath(dir));
  // Same layout as HugeColumnCountIsIoError.
  constexpr size_t kTablesSegmentOff = 16 + 7 * 8 + 2 * 16;
  constexpr size_t kFirstEntryOff = 16 + 7 * 8 + 4 * 16 + 8;
  uint32_t name_len = 0;
  std::memcpy(&name_len, &manifest[kFirstEntryOff], sizeof(name_len));
  // Entry: name, fingerprint, rows, cols, table offset, ...
  const size_t rows_off = kFirstEntryOff + 4 + name_len + 8;
  const size_t cols_off = rows_off + 8;
  uint32_t cols = 1;
  std::memcpy(&cols, &manifest[cols_off], sizeof(cols));
  ASSERT_EQ(cols, 0u);
  uint64_t table_off = 0;
  std::memcpy(&table_off, &manifest[cols_off + 4], sizeof(table_off));
  const uint64_t forged_rows = uint64_t{1} << 40;
  std::memcpy(&manifest[rows_off], &forged_rows, sizeof(forged_rows));

  // A table block starts with its column count, then its row count.
  const std::string tables_path = SegmentPath(dir, kCatalogTablesStem);
  std::string tables = ReadAll(tables_path);
  ASSERT_LE(table_off + 4 + sizeof(forged_rows), tables.size());
  std::memcpy(&tables[table_off + 4], &forged_rows, sizeof(forged_rows));
  WriteAll(tables_path, tables);
  uint64_t tables_size = 0;
  std::memcpy(&tables_size, &manifest[kTablesSegmentOff],
              sizeof(tables_size));
  ASSERT_EQ(tables_size, tables.size());
  const uint64_t tables_checksum = Fnv1a64(tables.data(), tables.size());
  std::memcpy(&manifest[kTablesSegmentOff + 8], &tables_checksum,
              sizeof(tables_checksum));
  FixupManifestChecksum(&manifest);
  WriteAll(ManifestPath(dir), manifest);

  auto reader = MakeEngine(1);
  auto opened = reader->OpenCatalog(dir);
  EXPECT_EQ(opened.code(), ErrorCode::kIoError);
  EXPECT_EQ(reader->NumTables(), 0u);
}

TEST(CatalogCorruptionTest, DiscoveryParamMismatchIsInvalidArgument) {
  const std::string dir = FreshDir("parammismatch");
  ASSERT_TRUE(MakeEngineWithSmallLake(1)->SaveCatalog(dir).ok());

  EngineOptions opts;
  opts.discovery.SetSignatureSize(32).SetBanding(8, 4);
  auto reader = LakeEngine::Create(opts);
  ASSERT_TRUE(reader.ok());
  auto opened = (*reader)->OpenCatalog(dir);
  EXPECT_EQ(opened.code(), ErrorCode::kInvalidArgument);
}

// ---------------------------------------------------------- golden hashes

/// Locked constants: the catalog persists ValueDict::HashOf side tables,
/// MinHash signatures, and LSH band keys as raw bytes, so these functions
/// changing silently would make every existing catalog decode into a
/// *different* dictionary (equal values under different codes — wrong FD
/// joins, wrong sketches). A change here must bump kCatalogFormatVersion.
TEST(CatalogGoldenTest, ValueHashesAreStable) {
  EXPECT_EQ(Value::String("alice").Hash(), 17663532886374439575ull);
  EXPECT_EQ(Value::Int(42).Hash(), 1564134752356013387ull);
  EXPECT_EQ(Value::Double(2.5).Hash(), 11233389734505888455ull);
  EXPECT_EQ(Value::Bool(true).Hash(), 3451009034337926933ull);
  // ±0.0 must stay collapsed: both encodings intern to one dict entry.
  EXPECT_EQ(Value::Double(-0.0).Hash(), 16525467367716908143ull);
  EXPECT_EQ(Value::Double(0.0).Hash(), Value::Double(-0.0).Hash());
}

TEST(CatalogGoldenTest, DictHashOfMatchesValueHash) {
  ValueDict dict;
  for (const Value& v :
       {Value::String("alice"), Value::Int(42), Value::Double(2.5)}) {
    const uint32_t code = dict.Intern(v);
    EXPECT_EQ(dict.HashOf(code), v.Hash());
  }
}

TEST(CatalogGoldenTest, MinHashSignatureBytesAreStable) {
  std::vector<Value> vals;
  for (int i = 0; i < 16; ++i) vals.push_back(S("v" + std::to_string(i)));
  vals.push_back(Value::Int(7));
  vals.push_back(Value::Null());
  ColumnSketch s = BuildColumnSketchFromValues("col", vals, SketchOptions());
  ASSERT_EQ(s.signature.size(), 64u);
  EXPECT_EQ(s.signature[0], 503156245670146792ull);
  EXPECT_EQ(s.signature[1], 239188940156540417ull);
  EXPECT_EQ(s.signature[2], 433627304758821863ull);
  EXPECT_EQ(s.signature[3], 160883120787117679ull);
}

TEST(CatalogGoldenTest, LshBandKeysAreStable) {
  std::vector<Value> vals;
  for (int i = 0; i < 16; ++i) vals.push_back(S("v" + std::to_string(i)));
  vals.push_back(Value::Int(7));
  vals.push_back(Value::Null());
  ColumnSketch s = BuildColumnSketchFromValues("col", vals, SketchOptions());
  LshIndex lsh(16, 4);
  std::vector<uint64_t> keys;
  lsh.ComputeBandKeys(s.signature, &keys);
  ASSERT_EQ(keys.size(), 16u);
  EXPECT_EQ(keys[0], 13941073475411058532ull);
  EXPECT_EQ(keys[15], 17224553595041193297ull);
  // AddWithKeys(precomputed) must land in exactly the buckets Add(signature)
  // would — the warm-load LSH rebuild relies on it.
  LshIndex a(16, 4), b(16, 4);
  a.Add(1, s.signature);
  b.AddWithKeys(1, keys);
  EXPECT_EQ(a.Query(s.signature), b.Query(s.signature));
}

// ----------------------------------------------------------- fingerprints

TEST(CatalogFingerprintTest, ContentKeyedNotCodeKeyed) {
  auto lake = SmallLake();
  // Two dictionaries interning in different orders assign different codes,
  // but the fingerprint hangs off content hashes — it must agree.
  SessionDict forward, backward;
  auto warm = Table::FromRows("warm", {"City"},
                              {{S("Quito")}, {S("Berlin")}, {S("Xi'an")}});
  ASSERT_TRUE(warm.ok());
  // Skew backward's code numbering.
  backward.Encode(*warm, warm->name());
  auto fingerprint = [](const Table& table, SessionDict* dict) {
    return CatalogTableFingerprint(*dict->Encode(table, table.name()),
                                   dict->dict());
  };
  const uint64_t fp_fwd = fingerprint(lake[0], &forward);
  const uint64_t fp_bwd = fingerprint(lake[0], &backward);
  EXPECT_EQ(fp_fwd, fp_bwd);
  // Different content ⇒ different fingerprint.
  EXPECT_NE(fingerprint(lake[0], &forward), fingerprint(lake[1], &forward));
}

// ---------------------------------------------------------------- stats

TEST(CatalogStatsTest, EngineAccumulatesCatalogCounters) {
  const std::string dir = FreshDir("stats");
  auto engine = MakeEngineWithSmallLake(1);
  ASSERT_TRUE(engine->SaveCatalog(dir).ok());
  ASSERT_TRUE(engine->SaveCatalog(dir).ok());
  const CatalogStats s = engine->catalog_stats();
  EXPECT_EQ(s.saves, 2u);
  EXPECT_EQ(s.tables_written, 3u);  // second save reused everything
  EXPECT_EQ(s.tables_reused, 3u);
  EXPECT_GT(s.bytes_written, 0u);
  EXPECT_EQ(s.generation, 2u);

  auto reader = MakeEngine(1);
  ASSERT_TRUE(reader->OpenCatalog(dir).ok());
  const CatalogStats r = reader->catalog_stats();
  EXPECT_EQ(r.opens, 1u);
  EXPECT_EQ(r.open_failures, 0u);
  EXPECT_EQ(r.tables_loaded, 3u);
  EXPECT_GT(r.mmap_bytes, 0u);
  EXPECT_EQ(r.generation, 2u);
  EXPECT_EQ(r.refreshes, 0u);
}

}  // namespace
}  // namespace lakefuzz
