// Request lifecycle hardening: deadlines, resource budgets, graceful
// degradation (BudgetPolicy::kTruncate partial results + Truncation
// reports), admission control, and the CSV robustness guards.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "core/engine.h"
#include "fd/full_disjunction.h"
#include "fd/problem.h"
#include "fd_problems.h"
#include "table/csv.h"
#include "util/request_context.h"
#include "util/str.h"
#include "util/thread_pool.h"

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

std::unique_ptr<LakeEngine> MakeEngineWithSmallSet(
    EngineOptions options = EngineOptions()) {
  auto engine = LakeEngine::Create(std::move(options));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  auto tables = SmallIntegrationSet();
  EXPECT_TRUE((*engine)->RegisterTable("a", tables[0]).ok());
  EXPECT_TRUE((*engine)->RegisterTable("b", tables[1]).ok());
  return std::move(engine).value();
}

/// One giant join component (every tuple shares the "hub" value) — the
/// bench-style instance whose FD stage is long enough that a mid-request
/// deadline lands inside enumeration, not after it.
std::vector<Table> GiantComponentTables(size_t num_tables, size_t num_keys,
                                        size_t rows_per_key) {
  std::vector<Table> tables;
  for (size_t l = 0; l < num_tables; ++l) {
    Table t("t" + std::to_string(l),
            Schema::FromNames({"key", "hub", "p" + std::to_string(l)}));
    for (size_t k = 0; k < num_keys; ++k) {
      for (size_t r = 0; r < rows_per_key; ++r) {
        EXPECT_TRUE(t.AppendRow({S(("k" + std::to_string(k)).c_str()),
                                 S("hub"),
                                 Value::String(StrFormat("v%zu_%zu_%zu", l, k,
                                                         r))})
                        .ok());
      }
    }
    tables.push_back(std::move(t));
  }
  return tables;
}

/// `num_hubs` independent non-trivial join components (one per hub value),
/// each small enough to finish inside the enumerator's first 1024-node
/// budget block — the shape that makes "first component completes, second
/// is cut" deterministic.
std::vector<Table> HubComponentTables(size_t num_hubs) {
  std::vector<Table> tables;
  for (size_t l = 0; l < 3; ++l) {
    Table t("t" + std::to_string(l),
            Schema::FromNames({"key", "hub", "p" + std::to_string(l)}));
    for (size_t h = 0; h < num_hubs; ++h) {
      const std::string hub_name = StrFormat("hub%zu", h);
      const char* hub = hub_name.c_str();
      for (size_t k = 0; k < 4; ++k) {
        for (size_t r = 0; r < 2; ++r) {
          EXPECT_TRUE(
              t.AppendRow({Value::String(StrFormat("%s_k%zu", hub, k)),
                           S(hub),
                           Value::String(StrFormat("%s_v%zu_%zu_%zu", hub, l,
                                                   k, r))})
                  .ok());
        }
      }
    }
    tables.push_back(std::move(t));
  }
  return tables;
}

/// Registers every table under its own name; returns the name list.
std::vector<std::string> RegisterAll(LakeEngine* engine,
                                     std::vector<Table> tables) {
  std::vector<std::string> names;
  for (auto& t : tables) {
    std::string name = t.name();
    names.push_back(name);
    EXPECT_TRUE(engine->RegisterTable(name, std::move(t)).ok());
  }
  return names;
}

Result<FdProblem> BuildByName(const std::vector<Table>& tables) {
  auto aligned = AlignByName(TestEncoded(tables));
  EXPECT_TRUE(aligned.ok());
  return EncodedProblem(tables, *aligned);
}

// ---------------------------------------------------------------- Deadline

TEST(DeadlineTest, UnsetNeverExpires) {
  Deadline unset;
  EXPECT_FALSE(unset.set());
  EXPECT_FALSE(unset.expired());
}

TEST(DeadlineTest, ZeroMillisExpiresImmediately) {
  Deadline now = Deadline::AfterMillis(0);
  EXPECT_TRUE(now.set());
  EXPECT_TRUE(now.expired());
}

TEST(DeadlineTest, FutureDeadlineNotYetExpired) {
  Deadline later = Deadline::AfterMillis(60'000);
  EXPECT_TRUE(later.set());
  EXPECT_FALSE(later.expired());
}

// --------------------------------------------------------- RequestContext

TEST(RequestContextTest, CheckStopPrefersCancellationOverDeadline) {
  RequestContext ctx;
  ctx.cancel = CancelToken::Create();
  ctx.cancel.Cancel();
  ctx.deadline = Deadline::AfterMillis(0);
  EXPECT_EQ(ctx.CheckStop("stage").code(), ErrorCode::kCancelled);
}

TEST(RequestContextTest, CheckStopNamesTheStage) {
  RequestContext ctx;
  ctx.deadline = Deadline::AfterMillis(0);
  Status stop = ctx.CheckStop("value matching");
  EXPECT_EQ(stop.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_NE(stop.message().find("value matching"), std::string::npos);
}

TEST(RequestContextTest, ShouldTruncateMatrix) {
  RequestContext fail_ctx;  // default kFail
  EXPECT_FALSE(fail_ctx.ShouldTruncate(ErrorCode::kDeadlineExceeded));
  EXPECT_FALSE(fail_ctx.ShouldTruncate(ErrorCode::kResourceExhausted));

  RequestContext trunc_ctx;
  trunc_ctx.policy = BudgetPolicy::kTruncate;
  EXPECT_TRUE(trunc_ctx.ShouldTruncate(ErrorCode::kDeadlineExceeded));
  EXPECT_TRUE(trunc_ctx.ShouldTruncate(ErrorCode::kResourceExhausted));
  // Cancellation never degrades to a partial result.
  EXPECT_FALSE(trunc_ctx.ShouldTruncate(ErrorCode::kCancelled));
  EXPECT_FALSE(trunc_ctx.ShouldTruncate(ErrorCode::kInternal));
}

TEST(RequestContextTest, CancelOnlyKeepsTokenDropsDeadlineAndBudget) {
  RequestContext ctx;
  ctx.cancel = CancelToken::Create();
  ctx.deadline = Deadline::AfterMillis(0);
  ctx.budget.max_fd_nodes = 7;
  ctx.policy = BudgetPolicy::kTruncate;

  RequestContext cleanup = ctx.CancelOnly();
  EXPECT_TRUE(cleanup.CheckStop("cleanup").ok());  // deadline gone
  EXPECT_EQ(cleanup.budget.max_fd_nodes, 0u);
  ctx.cancel.Cancel();
  EXPECT_EQ(cleanup.CheckStop("cleanup").code(), ErrorCode::kCancelled);
}

TEST(TruncationTest, MergeFirstCutWinsCountersAccumulate) {
  Truncation first;
  first.truncated = true;
  first.stage = Stage::kMatch;
  first.reason = "deadline";
  first.components_completed = 2;

  Truncation second;
  second.truncated = true;
  second.stage = Stage::kEmit;
  second.reason = "budget";
  second.components_completed = 3;
  second.tuples_emitted = 9;

  first.Merge(second);
  EXPECT_TRUE(first.truncated);
  EXPECT_EQ(first.stage, Stage::kMatch);  // first cut keeps the slot
  EXPECT_EQ(first.reason, "deadline");
  EXPECT_EQ(first.components_completed, 5u);
  EXPECT_EQ(first.tuples_emitted, 9u);

  Truncation complete;  // merging a complete stage changes nothing
  first.Merge(complete);
  EXPECT_EQ(first.components_completed, 5u);

  Truncation fresh;
  fresh.Merge(second);  // merging into a complete one adopts the cut
  EXPECT_TRUE(fresh.truncated);
  EXPECT_EQ(fresh.stage, Stage::kEmit);
}

// --------------------------------------------------------- FD executors

TEST(FdDeadlineTest, SerialExpiredDeadlineFailsByDefault) {
  auto problem = BuildByName(SmallIntegrationSet());
  ASSERT_TRUE(problem.ok());
  RequestContext ctx;
  ctx.deadline = Deadline::AfterMillis(0);
  FdStats stats;
  auto result = FullDisjunction().RunCodes(&*problem, nullptr, &stats, ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kDeadlineExceeded);
}

TEST(FdDeadlineTest, SerialExpiredDeadlineTruncatesUnderPolicy) {
  auto problem = BuildByName(SmallIntegrationSet());
  ASSERT_TRUE(problem.ok());
  RequestContext ctx;
  ctx.deadline = Deadline::AfterMillis(0);
  ctx.policy = BudgetPolicy::kTruncate;
  FdStats stats;
  auto result = FullDisjunction().RunCodes(&*problem, nullptr, &stats, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->empty());
  EXPECT_TRUE(stats.truncation.truncated);
  EXPECT_EQ(stats.truncation.stage, Stage::kFdEnumerate);
  EXPECT_EQ(stats.truncation.components_completed, 0u);
  EXPECT_GT(stats.truncation.components_skipped, 0u);
  EXPECT_NE(stats.truncation.reason.find("deadline"), std::string::npos);
}

TEST(FdDeadlineTest, ParallelExpiredDeadlineTruncatesUnderPolicy) {
  auto problem = BuildByName(SmallIntegrationSet());
  ASSERT_TRUE(problem.ok());
  RequestContext ctx;
  ctx.deadline = Deadline::AfterMillis(0);
  ctx.policy = BudgetPolicy::kTruncate;
  ThreadPool pool(4);
  FdStats stats;
  auto result = FullDisjunction().RunCodes(&*problem, &pool, &stats, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->empty());
  EXPECT_TRUE(stats.truncation.truncated);
  EXPECT_EQ(stats.truncation.components_completed, 0u);
  EXPECT_GT(stats.truncation.components_skipped, 0u);
}

// ----------------------------------------------------- engine deadlines

/// Acceptance instance: a 50 ms deadline expires while the progress
/// callback stalls the request at the FD-build boundary, so the very next
/// checkpoint must surface the stop — bounded return, not a full run.
TEST(EngineDeadlineTest, GiantComponentFiftyMsDeadlineReturnsBounded) {
  auto engine = LakeEngine::Create();
  ASSERT_TRUE(engine.ok());
  std::vector<std::string> names =
      RegisterAll(engine->get(), GiantComponentTables(4, 24, 2));
  RequestOptions req;
  req.holistic_alignment = false;
  req.fuzzy = false;
  req.deadline = Deadline::AfterMillis(50);
  req.progress = [](const ProgressEvent& e) {
    if (e.stage == Stage::kFdBuild && e.done == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
    }
  };
  const auto start = std::chrono::steady_clock::now();
  auto result = (*engine)->Integrate(names, req);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(result.code(), ErrorCode::kDeadlineExceeded);
  // One checkpoint interval past the stall, with head-room for sanitizers.
  EXPECT_LT(elapsed, std::chrono::seconds(2));

  // The engine survives: the same request without the deadline completes.
  RequestOptions clean;
  clean.holistic_alignment = false;
  clean.fuzzy = false;
  EXPECT_TRUE((*engine)->Integrate(names, clean).ok());
}

TEST(EngineDeadlineTest, GiantComponentTruncatePolicyReturnsPartial) {
  auto engine = LakeEngine::Create();
  ASSERT_TRUE(engine.ok());
  std::vector<std::string> names =
      RegisterAll(engine->get(), GiantComponentTables(4, 24, 2));
  RequestOptions req;
  req.holistic_alignment = false;
  req.fuzzy = false;
  req.deadline = Deadline::AfterMillis(50);
  req.budget_policy = BudgetPolicy::kTruncate;
  req.progress = [](const ProgressEvent& e) {
    if (e.stage == Stage::kFdBuild && e.done == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
    }
  };
  auto result = (*engine)->Integrate(names, req);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Truncation& cut = result->report.truncation;
  EXPECT_TRUE(cut.truncated);
  EXPECT_EQ(cut.stage, Stage::kFdEnumerate);
  EXPECT_GT(cut.components_skipped, 0u);
  EXPECT_EQ(result->integrated.NumRows(), cut.tuples_emitted);
  // The cleanup after the cut runs on CancelOnly() copies of the context,
  // which keep the ledger: subsumption and emit are still timed.
  EXPECT_EQ(result->report.stages.runs(Stage::kFdSubsume), 1u);
  EXPECT_EQ(result->report.stages.runs(Stage::kEmit), 1u);
}

TEST(EngineDeadlineTest, FuzzyMatchStageTruncatesUnderPolicy) {
  auto engine = MakeEngineWithSmallSet();
  RequestOptions req;
  req.holistic_alignment = false;
  req.deadline = Deadline::AfterMillis(50);
  req.budget_policy = BudgetPolicy::kTruncate;
  req.progress = [](const ProgressEvent& e) {
    if (e.stage == Stage::kMatch && e.done == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
    }
  };
  auto result = engine->Integrate({"a", "b"}, req);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->report.truncation.truncated);
  // The match stage was the first cut; it keeps the stage/reason slot even
  // though the FD stage truncated behind it too.
  EXPECT_EQ(result->report.truncation.stage, Stage::kMatch);
}

TEST(EngineDeadlineTest, FuzzyMatchStageDeadlineFailsByDefault) {
  auto engine = MakeEngineWithSmallSet();
  RequestOptions req;
  req.holistic_alignment = false;
  req.deadline = Deadline::AfterMillis(50);
  req.progress = [](const ProgressEvent& e) {
    if (e.stage == Stage::kMatch && e.done == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
    }
  };
  EXPECT_EQ(engine->Integrate({"a", "b"}, req).code(),
            ErrorCode::kDeadlineExceeded);
}

// ------------------------------------------------------- engine budgets

TEST(EngineBudgetTest, FdNodeBudgetFailsHardByDefault) {
  // The giant component needs far more than the single granted 1024-node
  // block, so a one-node budget reliably exhausts mid-enumeration.
  auto engine = LakeEngine::Create();
  ASSERT_TRUE(engine.ok());
  std::vector<std::string> names =
      RegisterAll(engine->get(), GiantComponentTables(4, 24, 2));
  RequestOptions req;
  req.holistic_alignment = false;
  req.fuzzy = false;
  req.budget.max_fd_nodes = 1;
  auto result = (*engine)->Integrate(names, req);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("max_fd_nodes"),
            std::string::npos);
}

TEST(EngineBudgetTest, FdNodeBudgetTruncatesToCompletedComponents) {
  auto engine = LakeEngine::Create();
  ASSERT_TRUE(engine.ok());
  std::vector<std::string> names =
      RegisterAll(engine->get(), HubComponentTables(2));

  RequestOptions clean;
  clean.holistic_alignment = false;
  clean.fuzzy = false;
  auto full = (*engine)->Integrate(names, clean);
  ASSERT_TRUE(full.ok());

  RequestOptions req = clean;
  req.budget.max_fd_nodes = 1;
  req.budget_policy = BudgetPolicy::kTruncate;
  auto result = (*engine)->Integrate(names, req);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Truncation& cut = result->report.truncation;
  EXPECT_TRUE(cut.truncated);
  EXPECT_NE(cut.reason.find("max_fd_nodes"), std::string::npos);
  // The first 1024-node block is always granted and covers the whole first
  // component; the second component's draw then finds the settled counter
  // negative and is skipped.
  EXPECT_EQ(cut.components_completed, 1u);
  EXPECT_EQ(cut.components_skipped, 1u);
  EXPECT_EQ(result->integrated.NumRows(), cut.tuples_emitted);
  EXPECT_GT(result->integrated.NumRows(), 0u);
  EXPECT_LT(result->integrated.NumRows(), full->integrated.NumRows());
}

TEST(EngineBudgetTest, LegacyMaxSearchNodesKeepsFailedPrecondition) {
  // The library-wide FdOptions::max_search_nodes safety valve (no request
  // budget set) must keep its historical error code.
  auto engine = LakeEngine::Create();
  ASSERT_TRUE(engine.ok());
  std::vector<std::string> names =
      RegisterAll(engine->get(), GiantComponentTables(4, 24, 2));
  RequestOptions req;
  req.holistic_alignment = false;
  req.fuzzy = false;
  req.fuzzy_fd.fd.max_search_nodes = 1;
  EXPECT_EQ((*engine)->Integrate(names, req).code(),
            ErrorCode::kFailedPrecondition);
}

TEST(EngineBudgetTest, ScratchBudgetStopsBetweenComponents) {
  // The scratch check runs before every component on every work lane, so it
  // needs a lake whose non-trivial components actually reserve arena bytes,
  // and more of them than the 4-thread engine has lanes: some lane must
  // then start a second component on scratch the first one grew.
  for (size_t threads : {size_t{1}, size_t{4}}) {
    auto engine = LakeEngine::Create(EngineOptions().SetNumThreads(threads));
    ASSERT_TRUE(engine.ok());
    std::vector<std::string> names =
        RegisterAll(engine->get(), HubComponentTables(threads + 1));
    RequestOptions req;
    req.holistic_alignment = false;
    req.fuzzy = false;
    req.budget.max_scratch_bytes = 1;  // first component's reservation exceeds
    auto hard = (*engine)->Integrate(names, req);
    ASSERT_FALSE(hard.ok()) << threads << " threads";
    EXPECT_EQ(hard.code(), ErrorCode::kResourceExhausted) << threads;
    EXPECT_NE(hard.status().message().find("max_scratch_bytes"),
              std::string::npos);

    req.budget_policy = BudgetPolicy::kTruncate;
    auto partial = (*engine)->Integrate(names, req);
    ASSERT_TRUE(partial.ok()) << partial.status().ToString();
    const Truncation& cut = partial->report.truncation;
    EXPECT_TRUE(cut.truncated) << threads;
    EXPECT_GE(cut.components_completed, 1u) << threads;
    EXPECT_GE(cut.components_skipped, 1u) << threads;
  }
}

TEST(EngineBudgetTest, ResultTupleBudgetFailsHardByDefault) {
  auto engine = MakeEngineWithSmallSet();
  RequestOptions req;
  req.holistic_alignment = false;
  req.fuzzy = false;  // 4 result tuples
  req.budget.max_result_tuples = 2;
  auto result = engine->Integrate({"a", "b"}, req);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("max_result_tuples"),
            std::string::npos);
}

TEST(EngineBudgetTest, ResultTupleBudgetTruncatesDeterministically) {
  auto engine = MakeEngineWithSmallSet();
  RequestOptions req;
  req.holistic_alignment = false;
  req.fuzzy = false;
  req.budget.max_result_tuples = 2;
  req.budget_policy = BudgetPolicy::kTruncate;
  auto result = engine->Integrate({"a", "b"}, req);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->integrated.NumRows(), 2u);
  const Truncation& cut = result->report.truncation;
  EXPECT_TRUE(cut.truncated);
  EXPECT_EQ(cut.stage, Stage::kEmit);
  EXPECT_EQ(cut.tuples_emitted, 2u);

  // The cut is a prefix of the full result in deterministic output order.
  RequestOptions full_req;
  full_req.holistic_alignment = false;
  full_req.fuzzy = false;
  auto full = engine->Integrate({"a", "b"}, full_req);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->integrated.NumRows(), 4u);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < full->integrated.NumColumns(); ++c) {
      EXPECT_TRUE(result->integrated.At(r, c) == full->integrated.At(r, c));
    }
  }
}

TEST(EngineBudgetTest, ResultTupleBudgetTruncatesStreamingToo) {
  class Collecting : public RowSink {
   public:
    Status OnBatch(const std::vector<FdResultTuple>& batch) override {
      count += batch.size();
      return Status::OK();
    }
    Status End(const FuzzyFdReport&) override {
      ended = true;
      return Status::OK();
    }
    size_t count = 0;
    bool ended = false;
  };
  auto engine = MakeEngineWithSmallSet();
  Collecting sink;
  RequestOptions req;
  req.holistic_alignment = false;
  req.fuzzy = false;
  req.budget.max_result_tuples = 2;
  req.budget_policy = BudgetPolicy::kTruncate;
  auto report = engine->IntegrateToSink({"a", "b"}, &sink, req);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(sink.ended);
  EXPECT_EQ(sink.count, 2u);
  EXPECT_TRUE(report->truncation.truncated);
  EXPECT_EQ(report->truncation.tuples_emitted, 2u);
  // The report counts the tuples the sink received, not the pre-cut result.
  EXPECT_EQ(report->fd_stats.results, 2u);
}

// ------------------------------------------------------------- admission

/// A sink whose Begin() parks the request until the test releases it —
/// holds an admission slot open at a deterministic point.
class GateSink : public RowSink {
 public:
  Status Begin(const std::vector<std::string>&) override {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    return Status::OK();
  }
  Status OnBatch(const std::vector<FdResultTuple>&) override {
    return Status::OK();
  }
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(EngineAdmissionTest, UnlimitedEngineOnlyCounts) {
  auto engine = MakeEngineWithSmallSet();
  RequestOptions req;
  req.holistic_alignment = false;
  req.fuzzy = false;
  ASSERT_TRUE(engine->Integrate({"a", "b"}, req).ok());
  ASSERT_TRUE(engine->Integrate({"a", "b"}, req).ok());
  AdmissionStats stats = engine->admission_stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.queued, 0u);
}

TEST(EngineAdmissionTest, OverloadBeyondQueueRejectsFast) {
  auto engine = MakeEngineWithSmallSet(
      EngineOptions().SetMaxConcurrentRequests(1).SetMaxQueuedRequests(0));
  GateSink gate;
  RequestOptions req;
  req.holistic_alignment = false;
  req.fuzzy = false;
  Result<FuzzyFdReport> first = Status::Internal("unset");
  std::thread holder([&] {
    first = engine->IntegrateToSink({"a", "b"}, &gate, req);
  });
  gate.AwaitEntered();  // the slot is definitely held now

  auto rejected = engine->Integrate({"a", "b"}, req);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(rejected.status().message().find("overloaded"),
            std::string::npos);

  gate.Release();
  holder.join();
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // The freed slot serves the next request; counters tell the story.
  EXPECT_TRUE(engine->Integrate({"a", "b"}, req).ok());
  AdmissionStats stats = engine->admission_stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.queued, 0u);
}

TEST(EngineAdmissionTest, QueuedRequestHonorsDeadline) {
  auto engine = MakeEngineWithSmallSet(
      EngineOptions().SetMaxConcurrentRequests(1).SetMaxQueuedRequests(4));
  GateSink gate;
  RequestOptions req;
  req.holistic_alignment = false;
  req.fuzzy = false;
  Result<FuzzyFdReport> first = Status::Internal("unset");
  std::thread holder([&] {
    first = engine->IntegrateToSink({"a", "b"}, &gate, req);
  });
  gate.AwaitEntered();

  RequestOptions queued = req;
  queued.deadline = Deadline::AfterMillis(60);
  // A queue-wait stop has no partial result: it fails hard even under
  // kTruncate.
  queued.budget_policy = BudgetPolicy::kTruncate;
  auto timed_out = engine->Integrate({"a", "b"}, queued);
  EXPECT_EQ(timed_out.code(), ErrorCode::kDeadlineExceeded);

  gate.Release();
  holder.join();
  ASSERT_TRUE(first.ok());
  AdmissionStats stats = engine->admission_stats();
  EXPECT_EQ(stats.queued, 1u);
  EXPECT_EQ(stats.admitted, 1u);
}

TEST(EngineAdmissionTest, QueuedRequestProceedsWhenSlotFrees) {
  auto engine = MakeEngineWithSmallSet(
      EngineOptions().SetMaxConcurrentRequests(1).SetMaxQueuedRequests(4));
  GateSink gate;
  RequestOptions req;
  req.holistic_alignment = false;
  req.fuzzy = false;
  Result<FuzzyFdReport> first = Status::Internal("unset");
  std::thread holder([&] {
    first = engine->IntegrateToSink({"a", "b"}, &gate, req);
  });
  gate.AwaitEntered();

  Result<PipelineResult> second = Status::Internal("unset");
  std::thread waiter([&] { second = engine->Integrate({"a", "b"}, req); });
  // Wait until the second request is observably parked in the queue.
  while (engine->admission_stats().queued < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate.Release();
  holder.join();
  waiter.join();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  AdmissionStats stats = engine->admission_stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.queued, 1u);
  EXPECT_EQ(stats.rejected, 0u);
}

// ---------------------------------------------------- discovery deadlines

TEST(EngineDiscoveryTest, ExpiredDeadlineFailsByDefault) {
  auto engine = MakeEngineWithSmallSet();
  RequestContext ctx;
  ctx.deadline = Deadline::AfterMillis(0);
  auto result = engine->DiscoverUnionable("a", 1, ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.code(), ErrorCode::kDeadlineExceeded);
}

TEST(EngineDiscoveryTest, ExpiredDeadlineTruncatesToBestSoFar) {
  auto engine = MakeEngineWithSmallSet();
  RequestContext ctx;
  ctx.deadline = Deadline::AfterMillis(0);
  ctx.policy = BudgetPolicy::kTruncate;
  Truncation cut;
  auto result = engine->DiscoverUnionable("a", 1, ctx, &cut);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(cut.truncated);
  EXPECT_EQ(cut.stage, Stage::kDiscover);
  EXPECT_LE(result->size(), 1u);
}

TEST(EngineDiscoveryTest, CancelledDiscoveryFailsEvenUnderTruncate) {
  auto engine = MakeEngineWithSmallSet();
  RequestContext ctx;
  ctx.cancel = CancelToken::Create();
  ctx.cancel.Cancel();
  ctx.policy = BudgetPolicy::kTruncate;
  EXPECT_EQ(engine->DiscoverUnionable("a", 1, ctx).code(),
            ErrorCode::kCancelled);
}

TEST(EngineDiscoveryTest, CleanQueryAfterTruncatedOneIsComplete) {
  auto engine = MakeEngineWithSmallSet();
  RequestContext expired;
  expired.deadline = Deadline::AfterMillis(0);
  expired.policy = BudgetPolicy::kTruncate;
  Truncation cut;
  ASSERT_TRUE(engine->DiscoverUnionable("a", 1, expired, &cut).ok());

  auto clean = engine->DiscoverUnionable("a", 1);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_EQ(clean->size(), 1u);
  EXPECT_EQ((*clean)[0].name, "b");
}

// ------------------------------------------------------------ CSV guards

TEST(CsvLimitsTest, UnquotedCellOverLimitIsInvalidArgument) {
  CsvOptions opts;
  opts.max_cell_bytes = 8;
  auto table = ReadCsv("City\nWaylandSpringsUponAvon\n", "t", opts);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(table.status().message().find("max_cell_bytes"),
            std::string::npos);
}

TEST(CsvLimitsTest, QuotedCellOverLimitIsInvalidArgument) {
  CsvOptions opts;
  opts.max_cell_bytes = 8;
  auto table = ReadCsv("City\n\"a very long quoted cell\"\n", "t", opts);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.code(), ErrorCode::kInvalidArgument);
}

TEST(CsvLimitsTest, ZeroDisablesTheCellLimit) {
  CsvOptions opts;
  opts.max_cell_bytes = 0;
  std::string big(1 << 16, 'x');
  auto table = ReadCsv("City\n" + big + "\n", "t", opts);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->NumRows(), 1u);
}

TEST(CsvLimitsTest, MissingFileIsIoErrorNamingThePath) {
  const std::string path = "/nonexistent/lakefuzz_missing.csv";
  auto table = ReadCsvFile(path);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.code(), ErrorCode::kIoError);
  EXPECT_NE(table.status().message().find(path), std::string::npos);
}

TEST(CsvLimitsTest, DirectoryIsIoError) {
  auto table = ReadCsvFile(testing::TempDir());
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.code(), ErrorCode::kIoError);
  EXPECT_NE(table.status().message().find("not a regular file"),
            std::string::npos);
}

TEST(CsvLimitsTest, EngineRegisterCsvSurfacesIoError) {
  auto engine = LakeEngine::Create();
  ASSERT_TRUE(engine.ok());
  Status missing =
      (*engine)->RegisterCsv("t", "/nonexistent/lakefuzz_missing.csv");
  EXPECT_EQ(missing.code(), ErrorCode::kIoError);
  EXPECT_EQ((*engine)->NumTables(), 0u);
}

}  // namespace
}  // namespace lakefuzz
