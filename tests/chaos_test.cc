// Seeded chaos harness for the request lifecycle (robustness tentpole).
//
// Runs hundreds of full discover → integrate pipelines against one engine
// while randomly firing deadlines, cancellations, resource budgets, both
// budget policies, and — in LAKEFUZZ_FAULT_POINTS builds — injected faults
// at the fd/build, fd/task (once per FD work item), sink/write seams. The
// engine must stay consistent throughout: every request returns one of the
// accepted lifecycle codes, the registry never changes shape, and a clean
// request after any amount of chaos is byte-identical to a fresh engine's
// answer.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "core/engine.h"
#include "obs/trace.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/str.h"

namespace lakefuzz {
namespace {

Value S(const std::string& s) { return Value::String(s); }

/// A small lake with overlapping schemas and a few fuzzy twins, cheap
/// enough to integrate hundreds of times under sanitizers.
std::vector<Table> ChaosLake() {
  std::vector<Table> tables;
  auto t0 = Table::FromRows("c0", {"City", "Country"},
                            {{S("Berlinn"), S("Germany")},
                             {S("Toronto"), S("Canada")},
                             {S("Lima"), S("Peru")}});
  auto t1 = Table::FromRows("c1", {"City", "VacRate"},
                            {{S("Berlin"), S("63%")},
                             {S("Lima"), S("71%")},
                             {S("Quito"), S("55%")}});
  auto t2 = Table::FromRows("c2", {"City", "Mayor"},
                            {{S("Toronto"), S("Olivia")},
                             {S("Quito"), S("Pabel")}});
  EXPECT_TRUE(t0.ok() && t1.ok() && t2.ok());
  tables.push_back(std::move(t0).value());
  tables.push_back(std::move(t1).value());
  tables.push_back(std::move(t2).value());
  return tables;
}

const std::vector<std::string>& LakeNames() {
  static const std::vector<std::string> names = {"c0", "c1", "c2"};
  return names;
}

Result<std::unique_ptr<LakeEngine>> MakeChaosEngine() {
  auto engine = LakeEngine::Create(EngineOptions().SetNumThreads(2));
  if (!engine.ok()) return engine;
  for (auto& t : ChaosLake()) {
    LAKEFUZZ_RETURN_IF_ERROR((*engine)->RegisterTable(t.name(), t));
  }
  return engine;
}

/// The clean-request answer used for byte-identity checks.
RequestOptions CleanRequest() {
  RequestOptions req;
  req.holistic_alignment = false;
  return req;
}

void ExpectTablesIdentical(const Table& a, const Table& b) {
  ASSERT_EQ(a.NumRows(), b.NumRows());
  ASSERT_EQ(a.NumColumns(), b.NumColumns());
  for (size_t r = 0; r < a.NumRows(); ++r) {
    for (size_t c = 0; c < a.NumColumns(); ++c) {
      ASSERT_TRUE(a.At(r, c) == b.At(r, c))
          << "cell (" << r << "," << c << ")";
    }
  }
}

/// Sink that swallows everything (chaos requests don't inspect output).
class NullSink : public RowSink {
 public:
  Status OnBatch(const std::vector<FdResultTuple>&) override {
    return Status::OK();
  }
};

bool AcceptedLifecycleCode(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
    case ErrorCode::kCancelled:
    case ErrorCode::kDeadlineExceeded:
    case ErrorCode::kResourceExhausted:
    case ErrorCode::kInternal:  // injected faults surface as kInternal
      return true;
    default:
      return false;
  }
}

TEST(ChaosTest, EngineStaysConsistentUnderRandomizedLifecycleStress) {
  constexpr int kIterations = 250;
  constexpr uint64_t kMasterSeed = 0xC4A05;

  auto engine = MakeChaosEngine();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  // Warm the discovery index once so chaos queries never race a cold build
  // into kNotFound (the registry is never mutated below).
  ASSERT_TRUE((*engine)->DiscoverUnionable("c0", 2).ok());

  // Fresh-engine reference for the byte-identity invariant.
  auto reference_engine = MakeChaosEngine();
  ASSERT_TRUE(reference_engine.ok());
  auto reference = (*reference_engine)->Integrate(LakeNames(), CleanRequest());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  Rng rng(kMasterSeed);
  int ok_count = 0, stopped_count = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
#ifdef LAKEFUZZ_FAULT_POINTS
    if (rng.Bernoulli(0.5)) {
      FaultInjector::Instance().ArmAll(kMasterSeed ^ static_cast<uint64_t>(iter),
                                       rng.UniformReal(0.02, 0.3));
    } else {
      FaultInjector::Instance().Disarm();
    }
#endif

    RequestOptions req;
    req.holistic_alignment = false;
    req.fuzzy = rng.Bernoulli(0.8);
    req.budget_policy =
        rng.Bernoulli(0.5) ? BudgetPolicy::kTruncate : BudgetPolicy::kFail;
    if (rng.Bernoulli(0.35)) {
      // Microsecond-scale deadlines land at every stage of the pipeline.
      req.deadline = Deadline::After(
          std::chrono::microseconds(rng.UniformInt(1, 3000)));
    }
    if (rng.Bernoulli(0.25)) req.budget.max_fd_nodes = rng.UniformInt(1, 64);
    if (rng.Bernoulli(0.25)) {
      req.budget.max_result_tuples = rng.UniformInt(1, 8);
    }
    // Telemetry rides through the chaos: half the requests carry a tracer
    // (occasionally one with a tiny span cap, to exercise the dropped-span
    // path), proving spans stay balanced and TSan-clean across deadlines,
    // cancellations, and injected faults.
    std::unique_ptr<Tracer> tracer;
    if (rng.Bernoulli(0.5)) {
      TraceOptions topts;
      topts.request_id = static_cast<uint64_t>(iter) + 1;
      if (rng.Bernoulli(0.2)) topts.max_spans = 4;
      tracer = std::make_unique<Tracer>(topts);
      req.tracer = tracer.get();
    }

    const uint64_t cancel_mode = rng.Uniform(3);
    if (cancel_mode > 0) {
      req.cancel = CancelToken::Create();
      if (cancel_mode == 1) {
        req.cancel.Cancel();  // pre-fired
      } else {
        // Fired from the progress callback at a random stage boundary.
        static const Stage kStages[] = {
            Stage::kDiscover, Stage::kAlign,       Stage::kMatch,
            Stage::kFdBuild,  Stage::kFdEnumerate, Stage::kFdSubsume,
            Stage::kEmit};
        const Stage trigger = kStages[rng.Uniform(7)];
        CancelToken token = req.cancel;
        req.progress = [token, trigger](const ProgressEvent& e) mutable {
          if (e.stage == trigger) token.Cancel();
        };
      }
    }

    Status outcome = Status::OK();
    NullSink sink;
    switch (rng.Uniform(4)) {
      case 0:
        outcome = (*engine)->Integrate(LakeNames(), req).status();
        break;
      case 1:
        req.batch_rows = static_cast<size_t>(rng.UniformInt(1, 4));
        outcome = (*engine)->IntegrateToSink(LakeNames(), &sink, req).status();
        break;
      case 2:
        outcome = (*engine)
                      ->DiscoverAndIntegrate(
                          "c0", static_cast<size_t>(rng.UniformInt(1, 2)),
                          &sink, req)
                      .status();
        break;
      default: {
        RequestContext dctx;
        dctx.cancel = req.cancel;
        dctx.deadline = req.deadline;
        dctx.policy = req.budget_policy;
        dctx.tracer = tracer.get();
        outcome =
            (*engine)
                ->DiscoverUnionable(
                    "c1", static_cast<size_t>(rng.UniformInt(1, 2)), dctx)
                .status();
        break;
      }
    }
    ASSERT_TRUE(AcceptedLifecycleCode(outcome.code()))
        << "iteration " << iter << ": " << outcome.ToString();
    outcome.ok() ? ++ok_count : ++stopped_count;

    if (tracer != nullptr) {
      // Whatever the outcome, the trace tree must be well-formed: every
      // span closed (RAII unwinds through error paths) and the exports
      // renderable.
      for (const Span& span : tracer->Spans()) {
        ASSERT_FALSE(span.open)
            << "iteration " << iter << ": span '" << span.name
            << "' left open after " << outcome.ToString();
      }
      ASSERT_NE(tracer->ToChromeJson().find("traceEvents"),
                std::string::npos);
      (void)tracer->FlameSummary();
    }

    // Consistency checkpoint: chaos must never corrupt the session. A clean
    // request right after any failure mode answers exactly like a fresh
    // engine, and the registry keeps its shape.
    if ((iter + 1) % 50 == 0 || iter + 1 == kIterations) {
      FaultInjector::Instance().Disarm();
      ASSERT_EQ((*engine)->NumTables(), LakeNames().size());
      auto clean = (*engine)->Integrate(LakeNames(), CleanRequest());
      ASSERT_TRUE(clean.ok())
          << "iteration " << iter << ": " << clean.status().ToString();
      ExpectTablesIdentical(clean->integrated, reference->integrated);
    }
  }
  FaultInjector::Instance().Disarm();
  // The mix must actually exercise both halves of the lifecycle.
  EXPECT_GT(ok_count, 0);
  EXPECT_GT(stopped_count, 0);

  // Admission accounting never leaks slots: after the storm the engine
  // still serves an unbounded stream of clean requests.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*engine)->Integrate(LakeNames(), CleanRequest()).ok());
  }
}

#ifdef LAKEFUZZ_FAULT_POINTS
TEST(ChaosTest, DeterministicFaultPointsFireOnce) {
  auto engine = MakeChaosEngine();
  ASSERT_TRUE(engine.ok());

  FaultInjector::Instance().ArmPoint("fd/build", 0);
  auto faulted = (*engine)->Integrate(LakeNames(), CleanRequest());
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.code(), ErrorCode::kInternal);
  EXPECT_NE(faulted.status().message().find("fd/build"), std::string::npos);

  // One-shot: the next request sails through without disarming.
  auto after = (*engine)->Integrate(LakeNames(), CleanRequest());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  FaultInjector::Instance().Disarm();
}

/// A 2-worker engine over one giant join component (every tuple shares the
/// "hub" value): the FD stage splits it into root-branch ranges, so the
/// fd/task seam is poked once per range.
Result<std::unique_ptr<LakeEngine>> MakeGiantComponentEngine() {
  auto engine = LakeEngine::Create(EngineOptions().SetNumThreads(2));
  if (!engine.ok()) return engine;
  for (size_t l = 0; l < 4; ++l) {
    Table t("g" + std::to_string(l),
            Schema::FromNames({"key", "hub", "p" + std::to_string(l)}));
    for (size_t k = 0; k < 24; ++k) {
      for (size_t r = 0; r < 2; ++r) {
        LAKEFUZZ_RETURN_IF_ERROR(
            t.AppendRow({S("k" + std::to_string(k)), S("hub"),
                         S(StrFormat("v%zu_%zu_%zu", l, k, r))}));
      }
    }
    LAKEFUZZ_RETURN_IF_ERROR((*engine)->RegisterTable(t.name(), t));
  }
  return engine;
}

TEST(ChaosTest, FdTaskFaultFailsTypedThenRecovers) {
  const std::vector<std::string> names = {"g0", "g1", "g2", "g3"};
  RequestOptions req;
  req.holistic_alignment = false;
  req.fuzzy = false;
  auto engine = MakeGiantComponentEngine();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // The fourth poke fires: a range in the middle of the giant's run.
  FaultInjector::Instance().ArmPoint("fd/task", 3);
  auto faulted = (*engine)->Integrate(names, req);
  FaultInjector::Instance().Disarm();
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.code(), ErrorCode::kInternal);
  EXPECT_NE(faulted.status().message().find("fd/task"), std::string::npos);

  auto reference_engine = MakeGiantComponentEngine();
  ASSERT_TRUE(reference_engine.ok());
  auto reference = (*reference_engine)->Integrate(names, req);
  auto clean = (*engine)->Integrate(names, req);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_GT(clean->report.fd_stats.intra_tasks, 3u);
  ExpectTablesIdentical(clean->integrated, reference->integrated);
}

TEST(ChaosTest, CatalogWriteFsyncRenameFaultsLeaveOldCatalogIntact) {
  // Every distinct save-path IO seam — buffered write, fsync/close, and the
  // rename that would commit — fails the re-save the same way: typed error,
  // the committed generation on disk untouched, the writer unpoisoned.
  for (const char* point :
       {"catalog/write", "catalog/fsync", "catalog/rename"}) {
    SCOPED_TRACE(point);
    const std::string dir = testing::TempDir() + "/lakefuzz_chaos_cat_" +
                            std::string(point).substr(8);
    std::filesystem::remove_all(dir);
    auto engine = MakeChaosEngine();
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->SaveCatalog(dir).ok());

    // Mutate the lake, then fail the re-save at the armed seam. The commit
    // point is the CURRENT rename, so the catalog on disk must still be
    // the first save, loadable in full.
    ASSERT_TRUE((*engine)->Unregister("c2").ok());
    FaultInjector::Instance().ArmPoint(point, 0);
    auto resave = (*engine)->SaveCatalog(dir);
    FaultInjector::Instance().Disarm();
    ASSERT_FALSE(resave.ok());
    EXPECT_EQ(resave.code(), ErrorCode::kInternal);
    EXPECT_NE(resave.status().message().find(point), std::string::npos);
    EXPECT_EQ((*engine)->catalog_stats().saves, 1u);

    auto reader = LakeEngine::Create(EngineOptions().SetNumThreads(2));
    ASSERT_TRUE(reader.ok());
    auto opened = (*reader)->OpenCatalog(dir);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(opened->tables_loaded, 3u);  // pre-fault snapshot, c2 included
    EXPECT_EQ(opened->generation, 1u);

    // The writer engine is not poisoned: a clean save now succeeds and
    // reflects the post-unregister lake.
    ASSERT_TRUE((*engine)->SaveCatalog(dir).ok());
    auto reader2 = LakeEngine::Create(EngineOptions().SetNumThreads(2));
    ASSERT_TRUE(reader2.ok());
    auto reopened = (*reader2)->OpenCatalog(dir);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened->tables_loaded, 2u);
  }
}

TEST(ChaosTest, CatalogReadAndMmapFaultsFailTypedThenRecover) {
  const std::string dir = testing::TempDir() + "/lakefuzz_chaos_cat_read";
  std::filesystem::remove_all(dir);
  {
    auto writer = MakeChaosEngine();
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->SaveCatalog(dir).ok());
  }
  for (const char* point : {"catalog/read", "catalog/mmap"}) {
    SCOPED_TRACE(point);
    auto engine = LakeEngine::Create(EngineOptions().SetNumThreads(2));
    ASSERT_TRUE(engine.ok());
    FaultInjector::Instance().ArmPoint(point, 0);
    auto faulted = (*engine)->OpenCatalog(dir);
    FaultInjector::Instance().Disarm();
    ASSERT_FALSE(faulted.ok());
    EXPECT_EQ(faulted.code(), ErrorCode::kInternal);
    EXPECT_EQ((*engine)->catalog_stats().open_failures, 1u);
    // Nothing half-loaded; the same engine opens cleanly once disarmed.
    EXPECT_EQ((*engine)->NumTables(), 0u);
    auto opened = (*engine)->OpenCatalog(dir);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(opened->tables_loaded, 3u);
    ASSERT_TRUE((*engine)->Integrate(LakeNames(), CleanRequest()).ok());
  }
}

TEST(ChaosTest, CatalogSurvivesSeededFaultStorm) {
  constexpr uint64_t kSeed = 0xCA7A106;
  const std::string dir = testing::TempDir() + "/lakefuzz_chaos_cat_storm";
  std::filesystem::remove_all(dir);
  auto engine = MakeChaosEngine();
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->SaveCatalog(dir).ok());

  Rng rng(kSeed);
  int failures = 0;
  for (int iter = 0; iter < 40; ++iter) {
    FaultInjector::Instance().ArmAll(kSeed ^ static_cast<uint64_t>(iter),
                                     rng.UniformReal(0.05, 0.5));
    Status outcome = rng.Bernoulli(0.5)
                         ? (*engine)->SaveCatalog(dir).status()
                         : LakeEngine::Create(EngineOptions().SetNumThreads(2))
                               .value()
                               ->OpenCatalog(dir)
                               .status();
    FaultInjector::Instance().Disarm();
    ASSERT_TRUE(outcome.ok() || outcome.code() == ErrorCode::kInternal ||
                outcome.code() == ErrorCode::kIoError)
        << "iteration " << iter << ": " << outcome.ToString();
    if (!outcome.ok()) ++failures;
  }
  EXPECT_GT(failures, 0);  // the storm must actually bite

  // After any storm, a clean save + open round-trips the lake exactly.
  ASSERT_TRUE((*engine)->SaveCatalog(dir).ok());
  auto reader = LakeEngine::Create(EngineOptions().SetNumThreads(2));
  ASSERT_TRUE(reader.ok());
  auto opened = (*reader)->OpenCatalog(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->tables_loaded, 3u);
  EXPECT_EQ(opened->columns_resketched, 0u);
  auto a = (*engine)->Integrate(LakeNames(), CleanRequest());
  auto b = (*reader)->Integrate(LakeNames(), CleanRequest());
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectTablesIdentical(a->integrated, b->integrated);
}

TEST(ChaosTest, SinkWriteFaultAbortsStreamNotEngine) {
  auto engine = MakeChaosEngine();
  ASSERT_TRUE(engine.ok());
  NullSink sink;
  FaultInjector::Instance().ArmPoint("sink/write", 0);
  auto faulted = (*engine)->IntegrateToSink(LakeNames(), &sink, CleanRequest());
  FaultInjector::Instance().Disarm();
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.code(), ErrorCode::kInternal);

  auto reference_engine = MakeChaosEngine();
  ASSERT_TRUE(reference_engine.ok());
  auto reference =
      (*reference_engine)->Integrate(LakeNames(), CleanRequest());
  auto clean = (*engine)->Integrate(LakeNames(), CleanRequest());
  ASSERT_TRUE(reference.ok() && clean.ok());
  ExpectTablesIdentical(clean->integrated, reference->integrated);
}
#endif  // LAKEFUZZ_FAULT_POINTS

}  // namespace
}  // namespace lakefuzz
