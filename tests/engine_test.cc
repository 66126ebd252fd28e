// Tests for the session-oriented public API: LakeEngine, TableRegistry,
// request cancellation, and streaming sinks.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>
#include <tuple>

#include "core/engine.h"
#include "table/csv.h"
#include "util/fault_injection.h"

namespace lakefuzz {
namespace {

Value S(const char* s) { return Value::String(s); }

std::vector<Table> SmallIntegrationSet() {
  auto t1 = Table::FromRows("a", {"City", "Country"},
                            {{S("Berlinn"), S("Germany")},
                             {S("Toronto"), S("Canada")}});
  auto t2 = Table::FromRows("b", {"City", "VacRate"},
                            {{S("Berlin"), S("63%")},
                             {S("Lima"), S("71%")}});
  EXPECT_TRUE(t1.ok() && t2.ok());
  return {std::move(t1).value(), std::move(t2).value()};
}

std::unique_ptr<LakeEngine> MakeEngineWithSmallSet() {
  auto engine = LakeEngine::Create();
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  auto tables = SmallIntegrationSet();
  EXPECT_TRUE((*engine)->RegisterTable("a", tables[0]).ok());
  EXPECT_TRUE((*engine)->RegisterTable("b", tables[1]).ok());
  return std::move(engine).value();
}

/// Bit-level table equality: same shape, same column names, same cells.
/// (Table intentionally has no operator==; results are compared where it
/// matters, here.)
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

std::string WriteTempFile(const std::string& name,
                          const std::string& content) {
  std::string dir = testing::TempDir() + "/lakefuzz_engine";
  std::filesystem::create_directories(dir);
  std::string path = dir + "/" + name;
  std::ofstream out(path, std::ios::binary);
  out << content;
  out.close();
  return path;
}

// ----------------------------------------------------------- EngineOptions

TEST(EngineOptionsTest, BuilderChainsAndValidates) {
  EngineOptions opts =
      EngineOptions().SetModel(ModelKind::kBert).SetNumThreads(4);
  EXPECT_EQ(opts.model, ModelKind::kBert);
  EXPECT_EQ(opts.num_threads, 4u);
  EXPECT_TRUE(opts.Validate().ok());
}

TEST(EngineOptionsTest, RejectsAbsurdThreadCount) {
  EngineOptions opts = EngineOptions().SetNumThreads(size_t{1} << 40);
  EXPECT_EQ(opts.Validate().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(LakeEngine::Create(opts).code(), ErrorCode::kInvalidArgument);
}

// ----------------------------------------------------------- ErrorCode

TEST(ErrorCodeTest, NewTaxonomyEntries) {
  EXPECT_EQ(Status::Cancelled("x").code(), ErrorCode::kCancelled);
  EXPECT_EQ(Status::AlreadyExists("x").code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(Status::Cancelled("x").ToString(), "Cancelled: x");
  EXPECT_EQ(Status::AlreadyExists("x").ToString(), "AlreadyExists: x");
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(Status::DeadlineExceeded("x").ToString(), "DeadlineExceeded: x");
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(Status::ResourceExhausted("x").ToString(),
            "ResourceExhausted: x");
  Result<int> r = Status::Cancelled("stop");
  EXPECT_EQ(r.code(), ErrorCode::kCancelled);
  Result<int> ok = 3;
  EXPECT_EQ(ok.code(), ErrorCode::kOk);
}

// ----------------------------------------------------------- registry

TEST(TableRegistryTest, DuplicateNameRejected) {
  auto engine = MakeEngineWithSmallSet();
  auto tables = SmallIntegrationSet();
  Status dup = engine->RegisterTable("a", tables[0]);
  EXPECT_EQ(dup.code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(engine->NumTables(), 2u);
}

TEST(TableRegistryTest, EmptyNameRejected) {
  auto engine = MakeEngineWithSmallSet();
  auto tables = SmallIntegrationSet();
  EXPECT_EQ(engine->RegisterTable("", tables[0]).code(),
            ErrorCode::kInvalidArgument);
}

TEST(TableRegistryTest, RowsWithoutColumnsRejected) {
  // A catalog stores tables column by column, so rows without columns
  // could never be saved and reopened; a 0 x 0 table (an empty CSV) is
  // fine.
  auto engine = MakeEngineWithSmallSet();
  Table rows_only("rows_only", Schema());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(rows_only.AppendRow({}).ok());
  EXPECT_EQ(engine->RegisterTable("rows_only", rows_only).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_TRUE(engine->RegisterTable("empty", Table("empty", Schema())).ok());
  EXPECT_EQ(engine->NumTables(), 3u);
}

TEST(TableRegistryTest, UnknownNameIsNotFound) {
  auto engine = MakeEngineWithSmallSet();
  auto result = engine->Integrate({"a", "missing"});
  EXPECT_EQ(result.code(), ErrorCode::kNotFound);
}

TEST(TableRegistryTest, NamesSortedAndUnregister) {
  auto engine = MakeEngineWithSmallSet();
  EXPECT_EQ(engine->TableNames(), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(engine->Unregister("a").ok());
  EXPECT_FALSE(engine->Unregister("a").ok());
  EXPECT_EQ(engine->NumTables(), 1u);
}

TEST(TableRegistryTest, UnregisterIsTypedAndBumpsVersion) {
  // Registry-level contract: Take returns null on a miss and mutates
  // nothing, and bumps the version on a hit (so derived caches keyed on the
  // version stop validating).
  TableRegistry registry;
  SessionDict dict;
  auto tables = SmallIntegrationSet();
  ASSERT_TRUE(registry.Register("a", dict.Encode(tables[0], "a")).ok());
  const uint64_t before = registry.version();
  EXPECT_EQ(registry.Take("missing"), nullptr);
  EXPECT_EQ(registry.version(), before);  // a miss mutates nothing
  EXPECT_NE(registry.Take("a"), nullptr);
  EXPECT_GT(registry.version(), before);
  EXPECT_EQ(registry.Take("a"), nullptr);
  EXPECT_EQ(registry.size(), 0u);

  // Engine-level twin of the same taxonomy.
  auto engine = MakeEngineWithSmallSet();
  EXPECT_TRUE(engine->Unregister("a").ok());
  EXPECT_EQ(engine->Unregister("a").code(), ErrorCode::kNotFound);
}

TEST(TableRegistryTest, SchemaCacheKeysOnTheNameList) {
  // Registry names may contain any byte, including one a joined-string key
  // would use as its separator: {"a", "b"} and {"a\x1fb"} are different
  // requests and must not share a cached alignment.
  auto engine = MakeEngineWithSmallSet();
  const std::string joined = "a\x1f" "b";
  ASSERT_TRUE(engine->RegisterTable(joined, SmallIntegrationSet()[0]).ok());
  RequestOptions by_name;
  by_name.holistic_alignment = false;
  by_name.fuzzy = false;
  ASSERT_TRUE(engine->Integrate({"a", "b"}, by_name).ok());
  auto single = engine->Integrate({joined}, by_name);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  EXPECT_EQ(single->aligned.column_map.size(), 1u);
  EXPECT_EQ(engine->schema_cache_hits(), 0u);
}

TEST(TableRegistryTest, SchemaCacheInvalidatedOnUnregister) {
  // An alignment cached for {a, b} must stop validating once b is
  // unregistered — even when a table named "b" is registered again with a
  // different schema.
  auto engine = MakeEngineWithSmallSet();
  RequestOptions req;  // holistic alignment: the cacheable mode
  ASSERT_TRUE(engine->Integrate({"a", "b"}, req).ok());
  ASSERT_TRUE(engine->Integrate({"a", "b"}, req).ok());
  EXPECT_EQ(engine->schema_cache_hits(), 1u);

  ASSERT_TRUE(engine->Unregister("b").ok());
  auto t2 = Table::FromRows("b", {"City", "Mayor"},
                            {{S("Berlin"), S("Kai")},
                             {S("Toronto"), S("Olivia")}});
  ASSERT_TRUE(t2.ok());
  ASSERT_TRUE(engine->RegisterTable("b", std::move(t2).value()).ok());
  auto after = engine->Integrate({"a", "b"}, req);
  ASSERT_TRUE(after.ok());
  // Recomputed, not served stale: no new hit, and the new column joined
  // the universal schema.
  EXPECT_EQ(engine->schema_cache_hits(), 1u);
  const auto& names = after->aligned.universal_names;
  EXPECT_TRUE(std::find(names.begin(), names.end(), "Mayor") != names.end());
}

// ----------------------------------------------------------- RegisterCsv

TEST(RegisterCsvTest, QuotedFieldsWithDelimitersAndNewlines) {
  std::string path = WriteTempFile(
      "quoted.csv",
      "City,Note\n\"Berlin, DE\",\"first line\nsecond line\"\n"
      "Lima,\"say \"\"hi\"\"\"\n");
  auto engine = LakeEngine::Create();
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->RegisterCsv("quoted", path).ok());

  RequestOptions req;
  req.holistic_alignment = false;
  auto result = (*engine)->Integrate({"quoted"}, req);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->integrated.NumRows(), 2u);
  // Embedded delimiter and newline survive the trip into the registry.
  EXPECT_EQ(result->integrated.At(0, 0).ToString(), "Berlin, DE");
  EXPECT_EQ(result->integrated.At(0, 1).ToString(),
            "first line\nsecond line");
  EXPECT_EQ(result->integrated.At(1, 1).ToString(), "say \"hi\"");
}

TEST(RegisterCsvTest, EmptyFileRegistersEmptyTable) {
  std::string path = WriteTempFile("empty.csv", "");
  auto engine = LakeEngine::Create();
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->RegisterCsv("empty", path).ok());
  RequestOptions req;
  req.holistic_alignment = false;
  auto result = (*engine)->Integrate({"empty"}, req);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->integrated.NumRows(), 0u);
  EXPECT_EQ(result->integrated.NumColumns(), 0u);
}

TEST(RegisterCsvTest, HeaderOnlyTableHasColumnsButNoRows) {
  std::string path = WriteTempFile("header_only.csv", "City,Country\n");
  auto engine = LakeEngine::Create();
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->RegisterCsv("header_only", path).ok());
  // A header-only table still aligns by name against a populated one.
  auto tables = SmallIntegrationSet();
  ASSERT_TRUE((*engine)->RegisterTable("a", tables[0]).ok());
  RequestOptions req;
  req.holistic_alignment = false;
  auto result = (*engine)->Integrate({"header_only", "a"}, req);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->integrated.NumRows(), 2u);  // only table a's tuples
  EXPECT_EQ(result->integrated.NumColumns(), 2u);
}

TEST(RegisterCsvTest, DuplicateRegistryNameRejected) {
  std::string path = WriteTempFile("dup.csv", "X\n1\n");
  auto engine = LakeEngine::Create();
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->RegisterCsv("t", path).ok());
  EXPECT_EQ((*engine)->RegisterCsv("t", path).code(),
            ErrorCode::kAlreadyExists);
}

TEST(RegisterCsvTest, MissingFileSurfacesIoError) {
  auto engine = LakeEngine::Create();
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->RegisterCsv("x", "/nonexistent/x.csv").code(),
            ErrorCode::kIoError);
}

TEST(RegisterCsvTest, CsvFilesIntegrateLikeInMemoryTables) {
  auto tables = SmallIntegrationSet();
  auto engine = LakeEngine::Create();
  ASSERT_TRUE(engine.ok());
  for (const auto& t : tables) {
    std::string path = WriteTempFile(t.name() + ".csv", WriteCsv(t));
    ASSERT_TRUE((*engine)->RegisterCsv(t.name(), path).ok());
  }
  RequestOptions req;
  req.holistic_alignment = false;
  auto result = (*engine)->Integrate({"a", "b"}, req);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->integrated.NumRows(), 3u);  // Berlin merged, Toronto, Lima
}

TEST(RegisterCsvTest, RegisteredTableIsRenamedToRegistryName) {
  std::string path = WriteTempFile("stem_name.csv", "X\n1\n2\n");
  auto engine = LakeEngine::Create();
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->RegisterCsv("renamed", path).ok());
  EXPECT_EQ((*engine)->TableNames(), (std::vector<std::string>{"renamed"}));
}

TEST(LakeEngineTest, RegisterTableKeepsNoReferenceToTheTable) {
  // The record is name + schema + codes: the engine encodes the table and
  // drops it, so the caller's pointer is the only owner left.
  auto engine = LakeEngine::Create();
  ASSERT_TRUE(engine.ok());
  auto table = std::make_shared<const Table>(SmallIntegrationSet()[0]);
  ASSERT_TRUE((*engine)->RegisterTable("a", table).ok());
  EXPECT_EQ(table.use_count(), 1);
  auto result = (*engine)->Integrate({"a"});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->integrated.NumRows(), table->NumRows());
}

// ----------------------------------------------------------- requests

// Acceptance: two Integrate calls on one engine (a) give the fuzzy
// integration, bit-identically, and (b) the second call reports
// embedding-cache hits with zero misses (full cross-call reuse).
TEST(LakeEngineTest, RepeatedIntegrateIsStableAndReusesCache) {
  auto engine = MakeEngineWithSmallSet();
  RequestOptions req;
  req.holistic_alignment = false;
  auto first = engine->Integrate({"a", "b"}, req);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = engine->Integrate({"a", "b"}, req);
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  // (a) Berlinn/Berlin merged, Toronto and Lima alone — on both calls.
  EXPECT_EQ(first->integrated.NumRows(), 3u);
  EXPECT_GT(first->report.values_rewritten, 0u);
  ExpectTablesIdentical(second->integrated, first->integrated);
  EXPECT_EQ(second->aligned.universal_names, first->aligned.universal_names);

  // (b) Cross-call cache reuse: the second call re-embeds nothing.
  const auto& stats2 = second->report.match_stats;
  EXPECT_GT(stats2.embedding_cache_hits, 0u);
  EXPECT_EQ(stats2.embedding_cache_misses, 0u);
  // The first call populated the session cache (misses = distinct strings).
  EXPECT_GT(first->report.match_stats.embedding_cache_misses, 0u);
  EXPECT_EQ(engine->embedding_cache()->misses(),
            first->report.match_stats.embedding_cache_misses);
}

// Holistic alignment and value matching read one session memo: the strings
// alignment samples to sign columns are already embedded when the matcher
// looks them up, so one cold holistic request embeds each string once.
TEST(LakeEngineTest, AlignmentAndMatchingShareTheSessionMemo) {
  auto engine = MakeEngineWithSmallSet();
  auto result = engine->Integrate({"a", "b"});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->integrated.NumRows(), 3u);  // Berlinn/Berlin merged
  EXPECT_GT(result->report.match_stats.embedding_cache_hits, 0u);
  EXPECT_EQ(result->report.match_stats.embedding_cache_misses, 0u);
  // Alignment sampled every distinct string of both tables: 2 tables x 2
  // columns x 2 distinct values, no string shared.
  EXPECT_EQ(engine->embedding_cache()->misses(), 8u);
}

TEST(LakeEngineTest, EmptyNameListRejected) {
  auto engine = MakeEngineWithSmallSet();
  EXPECT_EQ(engine->Integrate({}).code(), ErrorCode::kInvalidArgument);
}

TEST(LakeEngineTest, AlignedSchemaCachedPerNameSetAndInvalidated) {
  auto engine = MakeEngineWithSmallSet();
  ASSERT_TRUE(engine->Integrate({"a", "b"}).ok());  // holistic alignment
  EXPECT_EQ(engine->schema_cache_hits(), 0u);
  ASSERT_TRUE(engine->Integrate({"a", "b"}).ok());
  EXPECT_EQ(engine->schema_cache_hits(), 1u);
  // A different mode over the same names is its own entry.
  RequestOptions by_name;
  by_name.holistic_alignment = false;
  ASSERT_TRUE(engine->Integrate({"a", "b"}, by_name).ok());
  EXPECT_EQ(engine->schema_cache_hits(), 1u);
  ASSERT_TRUE(engine->Integrate({"a", "b"}, by_name).ok());
  EXPECT_EQ(engine->schema_cache_hits(), 2u);

  // Registry mutation invalidates: re-registering a changed "b" must
  // re-align (and the new table must actually be used).
  ASSERT_TRUE(engine->Unregister("b").ok());
  auto t2 = Table::FromRows("b", {"City", "VacRate", "Mayor"},
                            {{S("Berlin"), S("63%"), S("Kai")},
                             {S("Lima"), S("71%"), S("Rafael")}});
  ASSERT_TRUE(t2.ok());
  ASSERT_TRUE(engine->RegisterTable("b", std::move(t2).value()).ok());
  auto after = engine->Integrate({"a", "b"}, by_name);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(engine->schema_cache_hits(), 2u);  // recomputed, not served stale
  EXPECT_EQ(after->aligned.NumUniversal(), 4u);  // Mayor joined the schema
}

TEST(LakeEngineTest, RegisteredTablesAreEncodedOnce) {
  // Registration encodes each table into the session dictionary once;
  // requests and discovery read those codes and intern nothing — even the
  // first request, and with sketching deferred to the first discovery call.
  auto engine = LakeEngine::Create(EngineOptions().SetDiscovery(
      DiscoveryOptions().SetBuildAtRegister(false)));
  ASSERT_TRUE(engine.ok());
  {
    auto tables = SmallIntegrationSet();
    ASSERT_TRUE((*engine)->RegisterTable("a", tables[0]).ok());
    ASSERT_TRUE((*engine)->RegisterTable("b", tables[1]).ok());
  }
  const size_t encoded = (*engine)->session_dict().NumDistinct();
  EXPECT_EQ(encoded, 8u);  // every distinct cell of both tables
  for (bool fuzzy : {true, false}) {
    RequestOptions req;
    req.holistic_alignment = false;
    req.fuzzy = fuzzy;
    auto first = (*engine)->Integrate({"a", "b"}, req);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_EQ((*engine)->session_dict().NumDistinct(), encoded) << fuzzy;
    auto second = (*engine)->Integrate({"a", "b"}, req);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ((*engine)->session_dict().NumDistinct(), encoded) << fuzzy;
    ExpectTablesIdentical(first->integrated, second->integrated);
  }
  ASSERT_TRUE((*engine)->DiscoverUnionable("a", 1).ok());
  EXPECT_EQ((*engine)->session_dict().NumDistinct(), encoded);
}

TEST(LakeEngineTest, RejectedRegistrationInternsNothing) {
  auto engine = MakeEngineWithSmallSet();
  const size_t before = engine->session_dict().NumDistinct();
  auto fresh = Table::FromRows("fresh", {"City"},
                               {{S("Quito")}, {S("Xi'an")}});
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(engine->RegisterTable("a", *fresh).code(),
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(engine->RegisterTable("", *fresh).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(engine->session_dict().NumDistinct(), before);
  EXPECT_EQ(engine->NumTables(), 2u);
}

TEST(LakeEngineTest, ParallelEngineMatchesSerialEngine) {
  auto serial = MakeEngineWithSmallSet();
  RequestOptions req;
  req.holistic_alignment = false;
  auto serial_result = serial->Integrate({"a", "b"}, req);
  ASSERT_TRUE(serial_result.ok());

  auto parallel = LakeEngine::Create(EngineOptions().SetNumThreads(4));
  ASSERT_TRUE(parallel.ok());
  auto tables = SmallIntegrationSet();
  ASSERT_TRUE((*parallel)->RegisterTable("a", tables[0]).ok());
  ASSERT_TRUE((*parallel)->RegisterTable("b", tables[1]).ok());
  auto parallel_result = (*parallel)->Integrate({"a", "b"}, req);
  ASSERT_TRUE(parallel_result.ok());
  ExpectTablesIdentical(parallel_result->integrated, serial_result->integrated);
}

// Two holistic requests at once on a pooled engine: each request thread
// aligns through the session memo while the other's matcher fills it from
// the pool (96 open values per column, above the parallel-embed batch).
// Results and the memo's miss count equal a serial engine's.
TEST(LakeEngineTest, ConcurrentHolisticRequestsShareTheSessionMemo) {
  std::vector<std::vector<Value>> rows_a;
  std::vector<std::vector<Value>> rows_b;
  for (int i = 0; i < 96; ++i) {
    rows_a.push_back({Value::String("Berlin " + std::to_string(i)),
                      Value::Int(i)});
    rows_b.push_back({Value::String("Berlinn " + std::to_string(i)),
                      Value::Int(i)});
  }
  auto a = Table::FromRows("a", {"City", "Id"}, rows_a);
  auto b = Table::FromRows("b", {"Town", "Key"}, rows_b);
  ASSERT_TRUE(a.ok() && b.ok());
  auto make = [&](size_t threads) {
    auto engine = LakeEngine::Create(EngineOptions().SetNumThreads(threads));
    EXPECT_TRUE(engine.ok());
    EXPECT_TRUE((*engine)->RegisterTable("a", *a).ok());
    EXPECT_TRUE((*engine)->RegisterTable("b", *b).ok());
    return std::move(engine).value();
  };
  auto serial = make(1);
  auto serial_ab = serial->Integrate({"a", "b"});
  auto serial_ba = serial->Integrate({"b", "a"});
  ASSERT_TRUE(serial_ab.ok() && serial_ba.ok());

  auto pooled = make(2);
  Result<PipelineResult> pooled_ab = Status::Internal("not run");
  std::thread other([&] { pooled_ab = pooled->Integrate({"a", "b"}); });
  auto pooled_ba = pooled->Integrate({"b", "a"});
  other.join();
  ASSERT_TRUE(pooled_ab.ok() && pooled_ba.ok());
  ExpectTablesIdentical(pooled_ab->integrated, serial_ab->integrated);
  ExpectTablesIdentical(pooled_ba->integrated, serial_ba->integrated);
  EXPECT_EQ(pooled->embedding_cache()->misses(),
            serial->embedding_cache()->misses());
}

TEST(LakeEngineTest, RegularFdMode) {
  auto engine = MakeEngineWithSmallSet();
  RequestOptions req;
  req.holistic_alignment = false;
  req.fuzzy = false;
  auto result = engine->Integrate({"a", "b"}, req);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->integrated.NumRows(), 4u);  // Berlinn stays fragmented
}

TEST(LakeEngineTest, ReportCoversAllStages) {
  auto engine = MakeEngineWithSmallSet();
  auto result = engine->Integrate({"a", "b"});  // holistic → align work > 0
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->aligned.NumUniversal(), 2u);
  const StageLedger& stages = result->report.stages;
  // The report carries the request's whole ledger: every stage of an
  // Integrate ran exactly once, and only discovery did not run.
  for (size_t s = 0; s < kNumStages; ++s) {
    const Stage stage = static_cast<Stage>(s);
    EXPECT_EQ(stages.runs(stage), stage == Stage::kDiscover ? 0u : 1u)
        << StageName(stage);
  }
  EXPECT_GT(stages.wall_ns(Stage::kAlign), 0u);
  EXPECT_DOUBLE_EQ(result->report.total_seconds(),
                   stages.seconds(Stage::kAlign) +
                       stages.seconds(Stage::kMatch) +
                       stages.seconds(Stage::kRewrite) +
                       stages.seconds(Stage::kFd));
  // The FD sub-stages run one after another inside the fd stage.
  EXPECT_GE(stages.wall_ns(Stage::kFd),
            stages.wall_ns(Stage::kFdBuild) + stages.wall_ns(Stage::kFdIndex) +
                stages.wall_ns(Stage::kFdEnumerate) +
                stages.wall_ns(Stage::kFdSubsume) +
                stages.wall_ns(Stage::kEmit));
}

TEST(LakeEngineTest, TidOrderFollowsNameOrder) {
  auto engine = MakeEngineWithSmallSet();
  RequestOptions req;
  req.holistic_alignment = false;
  req.include_provenance = true;
  auto ab = engine->Integrate({"a", "b"}, req);
  auto ba = engine->Integrate({"b", "a"}, req);
  ASSERT_TRUE(ab.ok() && ba.ok());
  // Same integration either way, but TID numbering follows request order.
  EXPECT_EQ(ab->integrated.NumRows(), ba->integrated.NumRows());
  EXPECT_EQ(ab->integrated.schema().field(0).name, "TIDs");
}

// ----------------------------------------------------------- progress

TEST(LakeEngineTest, ProgressEventsCoverStages) {
  auto engine = MakeEngineWithSmallSet();
  std::vector<Stage> seen;
  RequestOptions req;
  req.holistic_alignment = false;
  req.progress = [&seen](const ProgressEvent& e) {
    if (seen.empty() || seen.back() != e.stage) seen.push_back(e.stage);
  };
  ASSERT_TRUE(engine->Integrate({"a", "b"}, req).ok());
  // Stage order: align, match, rewrite, fd_build, fd_enumerate, fd_subsume,
  // emit.
  ASSERT_GE(seen.size(), 6u);
  EXPECT_EQ(seen.front(), Stage::kAlign);
  EXPECT_EQ(seen.back(), Stage::kEmit);
  EXPECT_NE(std::find(seen.begin(), seen.end(), Stage::kMatch), seen.end());
  EXPECT_NE(std::find(seen.begin(), seen.end(), Stage::kFdEnumerate),
            seen.end());
}

// Characterization: the exact (stage, done, total) sequence of one fuzzy and
// one regular request. Tests elsewhere inject sleeps and cancels at specific
// events (kFdBuild with done == 0, kMatch, ...), so the whole sequence is
// part of the contract, not only its first and last stage.
TEST(LakeEngineTest, ProgressSequenceIsPinned) {
  using Event = std::tuple<Stage, size_t, size_t>;
  auto record = [](bool fuzzy) {
    std::vector<Event> events;
    RequestOptions req;
    req.holistic_alignment = false;
    req.fuzzy = fuzzy;
    req.progress = [&events](const ProgressEvent& e) {
      events.emplace_back(e.stage, e.done, e.total);
    };
    EXPECT_TRUE(MakeEngineWithSmallSet()->Integrate({"a", "b"}, req).ok());
    return events;
  };
  const std::vector<Event> fuzzy = {
      {Stage::kAlign, 0, 1},       {Stage::kAlign, 1, 1},
      {Stage::kMatch, 0, 3},       {Stage::kMatch, 1, 3},
      {Stage::kMatch, 2, 3},       {Stage::kMatch, 3, 3},
      {Stage::kRewrite, 0, 2},     {Stage::kRewrite, 2, 2},
      {Stage::kFdBuild, 0, 1},     {Stage::kFdBuild, 1, 1},
      {Stage::kFdEnumerate, 0, 1}, {Stage::kFdEnumerate, 1, 1},
      {Stage::kFdSubsume, 0, 1},   {Stage::kFdSubsume, 1, 1},
      {Stage::kEmit, 3, 3}};
  EXPECT_EQ(record(true), fuzzy);

  const std::vector<Event> regular = {
      {Stage::kAlign, 0, 1},       {Stage::kAlign, 1, 1},
      {Stage::kFdBuild, 0, 1},     {Stage::kFdBuild, 1, 1},
      {Stage::kFdEnumerate, 0, 1}, {Stage::kFdEnumerate, 1, 1},
      {Stage::kFdSubsume, 0, 1},   {Stage::kFdSubsume, 1, 1},
      {Stage::kEmit, 4, 4}};
  EXPECT_EQ(record(false), regular);
}

// ----------------------------------------------------------- cancellation

// Acceptance: a CancelToken fired mid-FD (from the progress callback at
// the FD stage boundary) surfaces ErrorCode::kCancelled without crashing.
TEST(LakeEngineTest, CancelTokenFiredMidFdReturnsCancelled) {
  auto engine = MakeEngineWithSmallSet();
  RequestOptions req;
  req.holistic_alignment = false;
  req.cancel = CancelToken::Create();
  CancelToken token = req.cancel;  // copies share the flag
  req.progress = [token](const ProgressEvent& e) {
    if (e.stage == Stage::kFdEnumerate) token.Cancel();
  };
  auto result = engine->Integrate({"a", "b"}, req);
  EXPECT_EQ(result.code(), ErrorCode::kCancelled);

  // The session survives a cancelled request: the same call succeeds next
  // time without the trigger-happy callback — and answers byte-identically
  // to an engine that never saw the failure.
  RequestOptions clean;
  clean.holistic_alignment = false;
  auto after = engine->Integrate({"a", "b"}, clean);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  auto fresh = MakeEngineWithSmallSet()->Integrate({"a", "b"}, clean);
  ASSERT_TRUE(fresh.ok());
  ExpectTablesIdentical(after->integrated, fresh->integrated);
}

// ----------------------------------------------- reuse after failure
//
// The engine-reuse contract for every lifecycle failure mode: after a
// request dies of X, the next clean request on the SAME engine must be
// byte-identical to a fresh engine's answer (no leaked admission slots, no
// poisoned caches, no half-rewritten registry snapshots).

void ExpectCleanRequestMatchesFreshEngine(LakeEngine* survivor) {
  RequestOptions clean;
  clean.holistic_alignment = false;
  auto after = survivor->Integrate({"a", "b"}, clean);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  auto fresh = MakeEngineWithSmallSet()->Integrate({"a", "b"}, clean);
  ASSERT_TRUE(fresh.ok());
  ExpectTablesIdentical(after->integrated, fresh->integrated);
}

TEST(EngineReuseTest, AfterDeadlineExceeded) {
  auto engine = MakeEngineWithSmallSet();
  RequestOptions req;
  req.holistic_alignment = false;
  req.deadline = Deadline::AfterMillis(50);
  req.progress = [](const ProgressEvent& e) {
    if (e.stage == Stage::kFdBuild && e.done == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
    }
  };
  EXPECT_EQ(engine->Integrate({"a", "b"}, req).code(),
            ErrorCode::kDeadlineExceeded);
  ExpectCleanRequestMatchesFreshEngine(engine.get());
}

TEST(EngineReuseTest, AfterResourceExhausted) {
  auto engine = MakeEngineWithSmallSet();
  RequestOptions req;
  req.holistic_alignment = false;
  req.fuzzy = false;
  // A one-tuple cap on the 4-row result trips the budget post-subsumption.
  req.budget.max_result_tuples = 1;
  EXPECT_EQ(engine->Integrate({"a", "b"}, req).code(),
            ErrorCode::kResourceExhausted);
  ExpectCleanRequestMatchesFreshEngine(engine.get());
}

TEST(EngineReuseTest, AfterTruncatedRequest) {
  auto engine = MakeEngineWithSmallSet();
  RequestOptions req;
  req.holistic_alignment = false;
  req.fuzzy = false;
  req.budget.max_result_tuples = 1;
  req.budget_policy = BudgetPolicy::kTruncate;
  auto partial = engine->Integrate({"a", "b"}, req);
  ASSERT_TRUE(partial.ok());
  EXPECT_TRUE(partial->report.truncation.truncated);
  ExpectCleanRequestMatchesFreshEngine(engine.get());
}

#ifdef LAKEFUZZ_FAULT_POINTS
TEST(EngineReuseTest, AfterInjectedMidFdFault) {
  auto engine = MakeEngineWithSmallSet();
  FaultInjector::Instance().ArmPoint("fd/build", 0);
  RequestOptions req;
  req.holistic_alignment = false;
  auto faulted = engine->Integrate({"a", "b"}, req);
  FaultInjector::Instance().Disarm();
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.code(), ErrorCode::kInternal);
  ExpectCleanRequestMatchesFreshEngine(engine.get());
}
#endif  // LAKEFUZZ_FAULT_POINTS

TEST(LakeEngineTest, PreCancelledTokenShortCircuits) {
  auto engine = MakeEngineWithSmallSet();
  RequestOptions req;
  req.cancel = CancelToken::Create();
  req.cancel.Cancel();
  auto result = engine->Integrate({"a", "b"}, req);
  EXPECT_EQ(result.code(), ErrorCode::kCancelled);
}

TEST(LakeEngineTest, CancelDuringMatchReturnsCancelled) {
  auto engine = MakeEngineWithSmallSet();
  RequestOptions req;
  req.holistic_alignment = false;
  req.cancel = CancelToken::Create();
  CancelToken token = req.cancel;
  req.progress = [token](const ProgressEvent& e) {
    if (e.stage == Stage::kMatch) token.Cancel();
  };
  auto result = engine->Integrate({"a", "b"}, req);
  EXPECT_EQ(result.code(), ErrorCode::kCancelled);
}

TEST(CancelTokenTest, InertAndLiveSemantics) {
  CancelToken inert;
  EXPECT_FALSE(inert.can_cancel());
  inert.Cancel();  // no-op, no crash
  EXPECT_FALSE(inert.cancelled());

  CancelToken live = CancelToken::Create();
  CancelToken copy = live;
  EXPECT_TRUE(live.can_cancel());
  EXPECT_FALSE(live.cancelled());
  copy.Cancel();
  EXPECT_TRUE(live.cancelled());  // shared flag
}

// ----------------------------------------------------------- streaming

class CollectingSink : public RowSink {
 public:
  Status Begin(const std::vector<std::string>& universal_names) override {
    universal_names_ = universal_names;
    return Status::OK();
  }
  Status OnBatch(const std::vector<FdResultTuple>& batch) override {
    batch_sizes_.push_back(batch.size());
    tuples_.insert(tuples_.end(), batch.begin(), batch.end());
    return Status::OK();
  }
  Status End(const FuzzyFdReport& report) override {
    end_stages_ = report.stages;
    ended_ = true;
    return Status::OK();
  }

  std::vector<std::string> universal_names_;
  std::vector<FdResultTuple> tuples_;
  std::vector<size_t> batch_sizes_;
  StageLedger end_stages_;
  bool ended_ = false;
};

TEST(IntegrateToSinkTest, StreamsSameTuplesAsIntegrate) {
  auto engine = MakeEngineWithSmallSet();
  RequestOptions req;
  req.holistic_alignment = false;
  auto full = engine->Integrate({"a", "b"}, req);
  ASSERT_TRUE(full.ok());

  CollectingSink sink;
  req.batch_rows = 2;  // 3 result rows → 2 batches
  auto report = engine->IntegrateToSink({"a", "b"}, &sink, req);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_TRUE(sink.ended_);
  EXPECT_EQ(sink.universal_names_, full->aligned.universal_names);
  ASSERT_EQ(sink.tuples_.size(), full->integrated.NumRows());
  EXPECT_EQ(sink.batch_sizes_, (std::vector<size_t>{2, 1}));
  EXPECT_EQ(report->fd_stats.results, sink.tuples_.size());
  // The sink's End already sees the request's ledger, emit included.
  EXPECT_EQ(sink.end_stages_.runs(Stage::kAlign), 1u);
  EXPECT_EQ(sink.end_stages_.runs(Stage::kEmit), 1u);
  EXPECT_EQ(report->stages.wall_ns(Stage::kFd),
            sink.end_stages_.wall_ns(Stage::kFd));
  // Tuples decode to the same cells the materialized table holds.
  Table streamed = FdResultsToTable(sink.tuples_,
                                    sink.universal_names_, "streamed");
  for (size_t r = 0; r < streamed.NumRows(); ++r) {
    for (size_t c = 0; c < streamed.NumColumns(); ++c) {
      EXPECT_TRUE(streamed.At(r, c) == full->integrated.At(r, c))
          << "cell (" << r << "," << c << ")";
    }
  }
}

TEST(IntegrateToSinkTest, CancelFiredFromSinkStopsStreamPromptly) {
  // A sink that fires the request's token from OnBatch: the decode-emit
  // loop's per-batch checkpoint must surface kCancelled before the next
  // batch, and End() must never run.
  class CancellingSink : public CollectingSink {
   public:
    explicit CancellingSink(CancelToken token) : token_(std::move(token)) {}
    Status OnBatch(const std::vector<FdResultTuple>& batch) override {
      token_.Cancel();
      return CollectingSink::OnBatch(batch);
    }

   private:
    CancelToken token_;
  };

  auto engine = MakeEngineWithSmallSet();
  RequestOptions req;
  req.holistic_alignment = false;
  req.fuzzy = false;  // 4 result tuples
  req.batch_rows = 1;
  req.cancel = CancelToken::Create();
  CancellingSink sink(req.cancel);
  auto report = engine->IntegrateToSink({"a", "b"}, &sink, req);
  EXPECT_EQ(report.code(), ErrorCode::kCancelled);
  EXPECT_EQ(sink.tuples_.size(), 1u);  // first batch only
  EXPECT_FALSE(sink.ended_);
}

TEST(IntegrateToSinkTest, SinkErrorAbortsRequest) {
  class FailingSink : public RowSink {
   public:
    Status OnBatch(const std::vector<FdResultTuple>&) override {
      return Status::Internal("sink full");
    }
  };
  auto engine = MakeEngineWithSmallSet();
  FailingSink sink;
  RequestOptions req;
  req.holistic_alignment = false;
  auto report = engine->IntegrateToSink({"a", "b"}, &sink, req);
  EXPECT_EQ(report.code(), ErrorCode::kInternal);
}

TEST(IntegrateToSinkTest, RejectsNullSinkAndZeroBatch) {
  auto engine = MakeEngineWithSmallSet();
  EXPECT_EQ(engine->IntegrateToSink({"a", "b"}, nullptr).code(),
            ErrorCode::kInvalidArgument);
  CollectingSink sink;
  RequestOptions req;
  req.batch_rows = 0;
  EXPECT_EQ(engine->IntegrateToSink({"a", "b"}, &sink, req).code(),
            ErrorCode::kInvalidArgument);
}

TEST(IntegrateToSinkTest, RegularFdStreamsToo) {
  auto engine = MakeEngineWithSmallSet();
  CollectingSink sink;
  RequestOptions req;
  req.holistic_alignment = false;
  req.fuzzy = false;
  req.batch_rows = 3;
  auto report = engine->IntegrateToSink({"a", "b"}, &sink, req);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(sink.tuples_.size(), 4u);  // regular FD keeps Berlinn apart
}

}  // namespace
}  // namespace lakefuzz
