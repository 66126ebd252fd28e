// Tests for the FD hot path: intra-component parallel enumeration
// (thread-count invariance on a single giant component cut into root-branch
// ranges, the split plan, cancellation and budget exhaustion mid-range)
// and the code build (FdProblem::
// BuildInterned's gather checked cell by cell against the tables and its
// result against the oracle, concurrent decode-while-encode safety).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <utility>

#include "core/fuzzy_fd.h"
#include "fd/full_disjunction.h"
#include "fd/oracle.h"
#include "fd/problem.h"
#include "fd/session_dict.h"
#include "fd_problems.h"
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
/// root-branch split is for.
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
  auto aligned = AlignByName(TestEncoded(tables));
  EXPECT_TRUE(aligned.ok());
  return EncodedProblem(tables, *aligned);
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

  // The split plan is pinned: one worker never splits; on more, the
  // 192-tuple giant becomes workers × 8 ranges of its root branches.
  const std::vector<std::pair<size_t, uint64_t>> plans = {
      {1, 0}, {2, 16}, {4, 32}, {8, 64}};
  for (const auto& [threads, ranges] : plans) {
    ThreadPool pool(threads);
    FdStats stats;
    FdProblem p = *problem;
    auto parallel = FullDisjunction().RunCodes(&p, &pool, &stats);
    ASSERT_TRUE(parallel.ok()) << threads;
    EXPECT_EQ(stats.intra_tasks, ranges) << threads;
    // Repeated runs make the same plan and the same output.
    FdStats again_stats;
    FdProblem again = *problem;
    auto repeat = FullDisjunction().RunCodes(&again, &pool, &again_stats);
    ASSERT_TRUE(repeat.ok()) << threads;
    EXPECT_EQ(again_stats.intra_tasks, stats.intra_tasks) << threads;
    EXPECT_EQ(again_stats.search_nodes, stats.search_nodes) << threads;
    ASSERT_EQ(parallel->size(), serial->size()) << threads;
    ASSERT_EQ(repeat->size(), serial->size()) << threads;
    for (size_t i = 0; i < serial->size(); ++i) {
      ASSERT_EQ((*parallel)[i].codes, (*serial)[i].codes)
          << "threads " << threads << " tuple " << i;
      ASSERT_EQ((*parallel)[i].tids, (*serial)[i].tids)
          << "threads " << threads << " tuple " << i;
      ASSERT_EQ((*repeat)[i].tids, (*serial)[i].tids)
          << "threads " << threads << " tuple " << i;
    }
    EXPECT_EQ(stats.search_nodes, serial_stats.search_nodes) << threads;
    if (threads > 1) {
      // The giant component must actually have been split into ranges,
      // not fall back to serial enumeration.
      EXPECT_GT(stats.intra_tasks, 0u) << threads;
    }
  }
}

TEST(IntraComponentTest, ManyComponentsWithIntraStillMatchSerial) {
  // Mixed shape: one giant component (hub) plus many small per-key
  // components — the giant runs as root-branch ranges, the tail as whole
  // components on the same lanes, and the merged output must stay
  // identical to fully sequential.
  auto tables = GiantComponentTables(3, 12, 2);
  Table extra("x", Schema::FromNames({"solo"}));
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(extra.AppendRow({S("s" + std::to_string(i % 20))}).ok());
  }
  tables.push_back(std::move(extra));
  const EncodedTables encoded = TestEncoded(tables);
  auto aligned = AlignByName(encoded);
  ASSERT_TRUE(aligned.ok());

  FuzzyFdOptions serial_opts;
  serial_opts.session_dict = TestSessionDict();
  auto serial = FuzzyFullDisjunction(serial_opts)
                    .RunToTuples(encoded, *aligned, /*fuzzy=*/false);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    FuzzyFdOptions opts = serial_opts;
    opts.pool = &pool;
    FuzzyFdReport report;
    auto parallel = FuzzyFullDisjunction(opts).RunToTuples(
        encoded, *aligned, /*fuzzy=*/false, &report);
    ASSERT_TRUE(parallel.ok());
    // Only the 72-tuple giant meets the share rule.
    EXPECT_EQ(report.fd_stats.intra_tasks, std::min<size_t>(72, threads * 8))
        << threads;
    ASSERT_EQ(parallel->tuples.size(), serial->tuples.size());
    for (size_t i = 0; i < serial->tuples.size(); ++i) {
      ASSERT_EQ(parallel->tuples[i].values, serial->tuples[i].values) << i;
      ASSERT_EQ(parallel->tuples[i].tids, serial->tuples[i].tids) << i;
    }
  }
}

TEST(IntraComponentTest, FastPathComponentIsNeverSplit) {
  // Four one-row tables that agree on a key: one component holding every
  // tuple (it meets the share rule at any worker count), but the fast path
  // emits it whole, so it is never split and no search node is counted.
  std::vector<Table> tables;
  for (size_t l = 0; l < 4; ++l) {
    Table t("t" + std::to_string(l),
            Schema::FromNames({"key", "p" + std::to_string(l)}));
    ASSERT_TRUE(t.AppendRow({S("k"), S("v" + std::to_string(l))}).ok());
    tables.push_back(std::move(t));
  }
  auto problem = BuildGiant(tables);
  ASSERT_TRUE(problem.ok());
  for (size_t threads : {0u, 2u, 8u}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    FdProblem p = *problem;
    FdStats stats;
    auto result = FullDisjunction().RunCodes(&p, pool.get(), &stats);
    ASSERT_TRUE(result.ok()) << threads;
    ASSERT_EQ(stats.num_components, 1u);
    ASSERT_EQ(result->size(), 1u) << threads;
    EXPECT_EQ((*result)[0].tids.size(), 4u) << threads;
    EXPECT_EQ(stats.intra_tasks, 0u) << threads;
    EXPECT_EQ(stats.search_nodes, 0u) << threads;
  }
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
  FdStats stats;
  RequestContext ctx(cancel);
  ctx.progress = &progress;
  auto result = FullDisjunction().RunCodes(&*problem, &pool, &stats, ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kCancelled);
}

TEST(IntraComponentTest, AsyncCancelMidSubtreeIsCleanUnderAsan) {
  // Fire the token from another thread while root-branch ranges run.
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
  FdStats stats;
  auto result = FullDisjunction().RunCodes(&*problem, &pool, &stats, cancel);
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

TEST(BuildInternedTest, GatherMatchesTablesAndOracleOnRandomTypedTables) {
  Rng rng(20260730);
  size_t oracle_trials = 0;
  for (int trial = 0; trial < 25; ++trial) {
    auto tables = RandomTypedTables(&rng, 2 + rng.Uniform(3));
    SessionDict dict;
    const EncodedTables encoded = EncodeTables(tables, &dict);
    auto aligned = AlignByName(encoded);
    ASSERT_TRUE(aligned.ok());

    const size_t distinct_encoded = dict.NumDistinct();
    auto problem = FdProblem::BuildInterned(encoded, *aligned, dict.dict());
    ASSERT_TRUE(problem.ok());
    // The code build is a gather: it adds no dictionary entry.
    EXPECT_EQ(dict.NumDistinct(), distinct_encoded) << trial;

    // Every gathered cell decodes to the table's value at its padded
    // position, and TIDs run in table order, then row order.
    const std::vector<PaddedRow> rows = PaddedRows(tables, *aligned);
    ASSERT_EQ(problem->num_tuples(), rows.size()) << trial;
    for (uint32_t tid = 0; tid < rows.size(); ++tid) {
      ASSERT_EQ(problem->table_id(tid), rows[tid].table_id) << trial;
      for (size_t c = 0; c < problem->num_columns(); ++c) {
        ASSERT_EQ(problem->dict().Decode(problem->CodeRow(tid)[c]),
                  rows[tid].values[c])
            << "trial " << trial << " tid " << tid << " column " << c;
      }
    }

    // distinct_values describes THIS problem, not the session dictionary:
    // the number of distinct typed non-null values in the tables.
    std::vector<Value> distinct;
    for (const PaddedRow& row : rows) {
      for (const Value& v : row.values) {
        if (v.is_null() ||
            std::find(distinct.begin(), distinct.end(), v) != distinct.end()) {
          continue;
        }
        distinct.push_back(v);
      }
    }
    auto result = FullDisjunction().Run(&*problem);
    ASSERT_TRUE(result.ok()) << trial;
    EXPECT_EQ(dict.NumDistinct(), distinct_encoded) << trial;
    EXPECT_EQ(result->stats.distinct_values, distinct.size()) << trial;

    if (rows.size() > 20) continue;  // beyond the oracle's reach
    ++oracle_trials;
    auto oracle = NaiveFdOracle(tables, *aligned);
    ASSERT_TRUE(oracle.ok()) << trial;
    ASSERT_EQ(result->tuples.size(), oracle->size()) << trial;
    for (size_t i = 0; i < oracle->size(); ++i) {
      ASSERT_EQ(result->tuples[i].values, (*oracle)[i].values)
          << "trial " << trial << " tuple " << i;
      ASSERT_EQ(result->tuples[i].tids, (*oracle)[i].tids)
          << "trial " << trial << " tuple " << i;
    }
  }
  EXPECT_GT(oracle_trials, 0u);
}

TEST(BuildInternedTest, DecodeStaysValidWhileAnotherThreadInterns) {
  // The session-dict contract: one request may stream-decode its codes
  // while another thread is still encoding new values. ASan flags any
  // use-after-free if dictionary growth ever moved decoded storage.
  auto column_table = [](const std::string& prefix, int from, int to) {
    Table t("t", Schema::FromNames({"v"}));
    for (int i = from; i < to; ++i) {
      EXPECT_TRUE(t.AppendRow({S(prefix + std::to_string(i))}).ok());
    }
    return t;
  };
  SessionDict dict;
  auto warm = dict.Encode(column_table("warm_", 0, 2000), "warm");
  const std::vector<uint32_t>& codes = warm->codes[0];
  std::atomic<bool> stop{false};
  std::thread interner([&] {
    for (int i = 0; i < 60000 && !stop.load(); i += 1000) {
      dict.Encode(column_table("grow_", i, i + 1000), "grow");
    }
  });
  size_t mismatches = 0;
  for (int round = 0; round < 50; ++round) {
    for (size_t i = 0; i < codes.size(); ++i) {
      const Value& v = dict.dict().Decode(codes[i]);
      if (!(v == S("warm_" + std::to_string(i)))) ++mismatches;
    }
  }
  stop.store(true);
  interner.join();
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace lakefuzz
