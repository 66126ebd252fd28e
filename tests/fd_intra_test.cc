// Tests for PR 4's FD hot-path work: intra-component parallel enumeration
// (thread-count invariance on a single giant component, cancellation and
// budget exhaustion mid-subtree) and zero-copy interning
// (FdProblem::BuildInterned vs the legacy padded Build, session-dict column
// caching, concurrent decode-while-intern safety).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "core/fuzzy_fd.h"
#include "fd/full_disjunction.h"
#include "fd/problem.h"
#include "fd/session_dict.h"
#include "util/rng.h"
#include "util/str.h"
#include "util/thread_pool.h"

namespace lakefuzz {
namespace {

Value S(const std::string& s) { return Value::String(s); }

/// A lake whose join graph collapses into ONE giant component: every tuple
/// shares the constant "hub" value (the shape fuzzy rewriting produces when
/// a corrupted shared key gets merged), while the "key" column partitions
/// consistency. Maximal sets = one tuple per table, all agreeing on key —
/// (rows_per_key)^num_tables combinations per key, so the branch-and-
/// exclude tree is wide at the top and bushy below: exactly the skew the
/// intra-component executor is for.
std::vector<Table> GiantComponentTables(size_t num_tables, size_t num_keys,
                                        size_t rows_per_key) {
  std::vector<Table> tables;
  for (size_t l = 0; l < num_tables; ++l) {
    Table t("t" + std::to_string(l),
            Schema::FromNames({"key", "hub", "p" + std::to_string(l)}));
    for (size_t k = 0; k < num_keys; ++k) {
      for (size_t r = 0; r < rows_per_key; ++r) {
        EXPECT_TRUE(t.AppendRow({S("k" + std::to_string(k)), S("hub"),
                                 S(StrFormat("v%zu_%zu_%zu", l, k, r))})
                        .ok());
      }
    }
    tables.push_back(std::move(t));
  }
  return tables;
}

Result<FdProblem> BuildGiant(const std::vector<Table>& tables) {
  auto aligned = AlignByName(tables);
  EXPECT_TRUE(aligned.ok());
  return FdProblem::Build(tables, *aligned);
}

// ------------------------------------------ intra-component parallelism

TEST(IntraComponentTest, SingleGiantComponentByteIdenticalAcrossThreads) {
  auto tables = GiantComponentTables(4, 24, 2);
  auto problem = BuildGiant(tables);
  ASSERT_TRUE(problem.ok());

  // Reference: the executor without a pool (one inline lane, no split).
  FdProblem serial_problem = *problem;
  FdStats serial_stats;
  auto serial =
      FullDisjunction().RunCodes(&serial_problem, nullptr, &serial_stats);
  ASSERT_TRUE(serial.ok());
  ASSERT_GT(serial->size(), 0u);
  ASSERT_EQ(serial_stats.num_components, 1u);
  ASSERT_EQ(serial_stats.largest_component,
            serial_problem.num_tuples());
  EXPECT_GT(serial_stats.arena_peak_bytes, 0u);

  for (size_t threads : {1u, 2u, 8u}) {
    FdProblem p = *problem;
    ThreadPool pool(threads);
    FdOptions opts;
    // Force the intra path for any component on multi-thread runs.
    opts.intra_component_min_size = 2;
    FdStats stats;
    auto parallel = FullDisjunction(opts).RunCodes(&p, &pool, &stats);
    ASSERT_TRUE(parallel.ok()) << threads;
    ASSERT_EQ(parallel->size(), serial->size()) << threads;
    for (size_t i = 0; i < serial->size(); ++i) {
      ASSERT_EQ((*parallel)[i].codes, (*serial)[i].codes)
          << "threads " << threads << " tuple " << i;
      ASSERT_EQ((*parallel)[i].tids, (*serial)[i].tids)
          << "threads " << threads << " tuple " << i;
    }
    EXPECT_EQ(stats.search_nodes, serial_stats.search_nodes) << threads;
    if (threads > 1) {
      // The giant component must actually have been split into subtree
      // tasks, not fall back to serial enumeration.
      EXPECT_GT(stats.intra_tasks, 0u) << threads;
      // Every executed task is profiled: the spawned subtree tasks plus
      // the component's root task.
      EXPECT_EQ(stats.task_profile.tasks, stats.intra_tasks + 1) << threads;
      EXPECT_GT(stats.task_profile.busy_ns, 0u) << threads;
    }
  }
}

TEST(IntraComponentTest, ManyComponentsWithIntraStillMatchSerial) {
  // Mixed shape: one giant component (hub) plus many small per-key
  // components — the giant runs through the intra path, the tail through
  // the classic component-per-worker path, and the merged output must stay
  // identical to fully sequential.
  auto tables = GiantComponentTables(3, 12, 2);
  Table extra("x", Schema::FromNames({"solo"}));
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(extra.AppendRow({S("s" + std::to_string(i % 20))}).ok());
  }
  tables.push_back(std::move(extra));
  auto aligned = AlignByName(tables);
  ASSERT_TRUE(aligned.ok());

  auto serial = FuzzyFullDisjunction(FuzzyFdOptions())
                    .RunToTuples(BorrowTables(tables), *aligned,
                                 /*fuzzy=*/false);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    FuzzyFdOptions opts;
    opts.fd.intra_component_min_size = 4;
    opts.pool = &pool;
    auto parallel = FuzzyFullDisjunction(opts).RunToTuples(
        BorrowTables(tables), *aligned, /*fuzzy=*/false);
    ASSERT_TRUE(parallel.ok());
    ASSERT_EQ(parallel->tuples.size(), serial->tuples.size());
    for (size_t i = 0; i < serial->tuples.size(); ++i) {
      ASSERT_EQ(parallel->tuples[i].values, serial->tuples[i].values) << i;
      ASSERT_EQ(parallel->tuples[i].tids, serial->tuples[i].tids) << i;
    }
  }
}

TEST(IntraComponentTest, DisableSplittingViaMinSize) {
  auto tables = GiantComponentTables(3, 10, 2);
  auto problem = BuildGiant(tables);
  ASSERT_TRUE(problem.ok());
  ThreadPool pool(4);
  FdOptions opts;
  opts.intra_component_min_size = SIZE_MAX;  // no component is giant
  FdStats stats;
  FdProblem p = *problem;
  auto result = FullDisjunction(opts).RunCodes(&p, &pool, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.intra_tasks, 0u);
}

TEST(IntraComponentTest, CancelAtEnumerationEntryReturnsCancelled) {
  auto tables = GiantComponentTables(4, 24, 2);
  auto problem = BuildGiant(tables);
  ASSERT_TRUE(problem.ok());
  CancelToken cancel = CancelToken::Create();
  ProgressFn progress = [&cancel](const ProgressEvent& event) {
    if (event.stage == Stage::kFdEnumerate && event.done == 0) {
      cancel.Cancel();
    }
  };
  ThreadPool pool(4);
  FdOptions opts;
  opts.intra_component_min_size = 2;
  FdStats stats;
  RequestContext ctx(cancel);
  ctx.progress = &progress;
  auto result = FullDisjunction(opts).RunCodes(&*problem, &pool, &stats, ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kCancelled);
}

TEST(IntraComponentTest, AsyncCancelMidSubtreeIsCleanUnderAsan) {
  // Fire the token from another thread while subtree tasks are running.
  // Which checkpoint catches it is timing-dependent, so the contract is:
  // either a clean kCancelled or a complete, correct result — never a
  // crash, leak, or partial state (ASan job verifies the "clean" part).
  auto tables = GiantComponentTables(4, 40, 3);
  auto problem = BuildGiant(tables);
  ASSERT_TRUE(problem.ok());
  CancelToken cancel = CancelToken::Create();
  std::thread firing([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    cancel.Cancel();
  });
  ThreadPool pool(4);
  FdOptions opts;
  opts.intra_component_min_size = 2;
  FdStats stats;
  auto result =
      FullDisjunction(opts).RunCodes(&*problem, &pool, &stats, cancel);
  firing.join();
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), ErrorCode::kCancelled);
  }
}

TEST(IntraComponentTest, BudgetExhaustionPropagatesFromSubtrees) {
  auto tables = GiantComponentTables(4, 24, 2);
  auto problem = BuildGiant(tables);
  ASSERT_TRUE(problem.ok());
  ThreadPool pool(4);
  FdOptions opts;
  opts.intra_component_min_size = 2;
  opts.max_search_nodes = 1;  // first amortized draw already overdraws
  FdStats stats;
  auto result = FullDisjunction(opts).RunCodes(&*problem, &pool, &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kFailedPrecondition);
}

// ------------------------------------------------- zero-copy interning

/// Random tables over a value pool that deliberately contains typed twins
/// (Int(1) vs Double(1.0) vs String("1")): interning must keep them
/// distinct exactly like Value equality does.
std::vector<Table> RandomTypedTables(Rng* rng, size_t num_tables) {
  std::vector<Value> pool = {
      Value::Int(1),          Value::Double(1.0), S("1"),
      Value::Bool(true),      Value::Int(7),      S("seven"),
      Value::Double(2.5),     S("x"),             S("y"),
      Value::Bool(false),
  };
  std::vector<Table> tables;
  for (size_t l = 0; l < num_tables; ++l) {
    // Overlapping headers: c0/c1 shared by all tables, one private column.
    Table t("t" + std::to_string(l),
            Schema::FromNames({"c0", "c1", "m" + std::to_string(l)}));
    const size_t rows = 3 + rng->Uniform(5);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<Value> row(3);
      for (size_t c = 0; c < 3; ++c) {
        if (rng->Bernoulli(0.25)) continue;  // null
        row[c] = pool[rng->Uniform(pool.size())];
      }
      EXPECT_TRUE(t.AppendRow(std::move(row)).ok());
    }
    tables.push_back(std::move(t));
  }
  return tables;
}

TEST(BuildInternedTest, ParityWithLegacyBuildOnRandomTypedTables) {
  Rng rng(20260730);
  for (int trial = 0; trial < 25; ++trial) {
    auto tables = RandomTypedTables(&rng, 2 + rng.Uniform(3));
    auto aligned = AlignByName(tables);
    ASSERT_TRUE(aligned.ok());

    auto legacy = FdProblem::Build(tables, *aligned);
    ASSERT_TRUE(legacy.ok());
    SessionDict dict;
    auto interned =
        FdProblem::BuildInterned(BorrowTables(tables), *aligned, &dict);
    ASSERT_TRUE(interned.ok());

    ASSERT_EQ(legacy->num_tuples(), interned->num_tuples());
    for (uint32_t tid = 0; tid < legacy->num_tuples(); ++tid) {
      ASSERT_EQ(legacy->table_id(tid), interned->table_id(tid));
    }

    auto legacy_result = FullDisjunction().Run(&*legacy);
    auto interned_result = FullDisjunction().Run(&*interned);
    ASSERT_TRUE(legacy_result.ok()) << trial;
    ASSERT_TRUE(interned_result.ok()) << trial;
    ASSERT_EQ(legacy_result->tuples.size(), interned_result->tuples.size())
        << trial;
    for (size_t i = 0; i < legacy_result->tuples.size(); ++i) {
      ASSERT_EQ(legacy_result->tuples[i].values,
                interned_result->tuples[i].values)
          << "trial " << trial << " tuple " << i;
      ASSERT_EQ(legacy_result->tuples[i].tids,
                interned_result->tuples[i].tids)
          << "trial " << trial << " tuple " << i;
    }

    // The acceptance claim: the legacy path copies every padded cell; the
    // interned path copies only the values new to the session dictionary.
    size_t cells = 0;
    for (const auto& t : tables) cells += t.NumRows() * t.NumColumns();
    EXPECT_GE(legacy_result->stats.value_copies, cells) << trial;
    EXPECT_LE(interned_result->stats.value_copies, dict.NumDistinct())
        << trial;
    // distinct_values describes THIS problem on both paths, even though
    // the session dictionary spans the whole session.
    EXPECT_EQ(legacy_result->stats.distinct_values,
              interned_result->stats.distinct_values)
        << trial;
  }
}

TEST(BuildInternedTest, PinnedTablesWarmToZeroCopiesAndCacheHits) {
  auto tables = GiantComponentTables(3, 8, 2);
  auto aligned = AlignByName(tables);
  ASSERT_TRUE(aligned.ok());
  SessionDict dict;
  TableList borrowed;
  std::vector<std::shared_ptr<const Table>> pinned;
  for (auto& t : tables) {
    pinned.push_back(std::make_shared<const Table>(std::move(t)));
    dict.PinTable(pinned.back());
    borrowed.push_back(pinned.back().get());
  }

  auto cold = FdProblem::BuildInterned(borrowed, *aligned, &dict);
  ASSERT_TRUE(cold.ok());
  cold->BuildIndex();
  EXPECT_GT(cold->index_stats().value_copies, 0u);
  const auto cold_stats = dict.stats();
  EXPECT_EQ(cold_stats.column_hits, 0u);

  auto warm = FdProblem::BuildInterned(borrowed, *aligned, &dict);
  ASSERT_TRUE(warm.ok());
  warm->BuildIndex();
  // Warm rebuild: every column answered from the memo, zero Value copies.
  EXPECT_EQ(warm->index_stats().value_copies, 0u);
  const auto warm_stats = dict.stats();
  EXPECT_EQ(warm_stats.column_hits - cold_stats.column_hits,
            borrowed.size() * 3);

  // Identical code rows both times (codes are session-stable).
  ASSERT_EQ(cold->num_tuples(), warm->num_tuples());
  for (uint32_t tid = 0; tid < cold->num_tuples(); ++tid) {
    for (size_t c = 0; c < cold->num_columns(); ++c) {
      ASSERT_EQ(cold->CodeRow(tid)[c], warm->CodeRow(tid)[c]);
    }
  }

  // Dropping a table unpins it: the next build re-interns (still zero NEW
  // values, but no memo hit for that table's columns).
  dict.DropTable(pinned[0].get());
  auto after_drop = FdProblem::BuildInterned(borrowed, *aligned, &dict);
  ASSERT_TRUE(after_drop.ok());
  const auto drop_stats = dict.stats();
  EXPECT_EQ(drop_stats.column_hits - warm_stats.column_hits,
            (borrowed.size() - 1) * 3);
}

TEST(BuildInternedTest, DecodeStaysValidWhileAnotherThreadInterns) {
  // The session-dict contract: one request may stream-decode its codes
  // while another request is still interning new values. ASan flags any
  // use-after-free if dictionary growth ever moved decoded storage.
  SessionDict dict;
  std::vector<uint32_t> codes;
  std::vector<std::string> originals;
  for (int i = 0; i < 2000; ++i) {
    originals.push_back("warm_" + std::to_string(i));
    codes.push_back(dict.InternValue(S(originals.back())));
  }
  std::atomic<bool> stop{false};
  std::thread interner([&] {
    for (int i = 0; i < 60000 && !stop.load(); ++i) {
      dict.InternValue(S("grow_" + std::to_string(i)));
    }
  });
  size_t mismatches = 0;
  for (int round = 0; round < 50; ++round) {
    for (size_t i = 0; i < codes.size(); ++i) {
      const Value& v = dict.dict().Decode(codes[i]);
      if (!(v == S(originals[i]))) ++mismatches;
    }
  }
  stop.store(true);
  interner.join();
  EXPECT_EQ(mismatches, 0u);
}

TEST(BuildInternedTest, AddTupleRejectedOnInternedProblem) {
  auto tables = GiantComponentTables(2, 2, 1);
  auto aligned = AlignByName(tables);
  ASSERT_TRUE(aligned.ok());
  SessionDict dict;
  auto problem =
      FdProblem::BuildInterned(BorrowTables(tables), *aligned, &dict);
  ASSERT_TRUE(problem.ok());
  auto status = problem->AddTuple(
      0, std::vector<Value>(problem->num_columns()));
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
}

TEST(ValueDictTest, CopyAndMoveKeepBucketedStorageIntact) {
  ValueDict dict;
  std::vector<uint32_t> codes;
  for (int i = 0; i < 3000; ++i) {
    codes.push_back(dict.Intern(Value::Int(i)));
  }
  ValueDict copy = dict;
  EXPECT_EQ(copy.NumDistinct(), dict.NumDistinct());
  for (int i = 0; i < 3000; ++i) {
    EXPECT_EQ(copy.Decode(codes[i]), Value::Int(i));
    EXPECT_EQ(copy.Intern(Value::Int(i)), codes[i]);
  }
  ValueDict moved = std::move(copy);
  for (int i = 0; i < 3000; ++i) {
    EXPECT_EQ(moved.Decode(codes[i]), Value::Int(i));
  }
}

}  // namespace
}  // namespace lakefuzz
