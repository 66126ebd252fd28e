// Tests for the lake-scale discovery subsystem: column sketches (MinHash vs
// exact Jaccard), the LSH banding index, the planted-lake generator,
// engine-level DiscoverUnionable / DiscoverAndIntegrate (recall,
// determinism across index-build thread counts, bit-identity with manual
// integration), cancellation, and registry unregistration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <thread>
#include <unordered_set>

#include "core/engine.h"
#include "datagen/lake.h"
#include "discovery/column_sketch.h"
#include "discovery/lsh_index.h"
#include "fd/session_dict.h"
#include "util/rng.h"
#include "util/str.h"

namespace lakefuzz {
namespace {

// ---------------------------------------------------------------- sketches

/// Interns `ids` (as strings "v<i>") into `dict` and returns the code span.
std::vector<uint32_t> CodesFor(const std::vector<uint64_t>& ids,
                               ValueDict* dict) {
  std::vector<uint32_t> codes;
  codes.reserve(ids.size());
  for (uint64_t id : ids) {
    codes.push_back(dict->Intern(Value::String("v" + std::to_string(id))));
  }
  return codes;
}

double ExactJaccard(const std::vector<uint64_t>& a,
                    const std::vector<uint64_t>& b) {
  std::set<uint64_t> sa(a.begin(), a.end()), sb(b.begin(), b.end());
  size_t inter = 0;
  for (uint64_t x : sa) inter += sb.count(x);
  const size_t uni = sa.size() + sb.size() - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) / uni;
}

TEST(ColumnSketchTest, MinHashTracksExactJaccardOnRandomSets) {
  Rng rng(7);
  SketchOptions opts;
  opts.signature_size = 256;  // standard error ~ 1/16
  double total_err = 0.0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    ValueDict dict;
    // Two random subsets of a shared universe, sizes 50–400.
    const uint64_t universe = 200 + rng.Uniform(600);
    auto draw = [&](size_t n) {
      std::vector<uint64_t> out;
      for (size_t i = 0; i < n; ++i) out.push_back(rng.Uniform(universe));
      return out;
    };
    const auto a = draw(50 + rng.Uniform(350));
    const auto b = draw(50 + rng.Uniform(350));
    const auto ca = CodesFor(a, &dict);
    const auto cb = CodesFor(b, &dict);
    const auto sa = BuildColumnSketch("a", ca, dict, opts);
    const auto sb = BuildColumnSketch("b", cb, dict, opts);
    const double est = EstimateJaccard(sa, sb);
    const double exact = ExactJaccard(a, b);
    EXPECT_NEAR(est, exact, 0.15) << "trial " << t;
    total_err += std::abs(est - exact);
  }
  EXPECT_LT(total_err / trials, 0.05);
}

TEST(ColumnSketchTest, SignatureInvariantToCodeOrderAndDuplicates) {
  SketchOptions opts;
  ValueDict d1, d2;
  // Same value multiset, different intern order, extra duplicates, plus
  // unrelated values interned first (shifting all code numbers).
  d2.Intern(Value::String("shift-a"));
  d2.Intern(Value::String("shift-b"));
  std::vector<uint64_t> ids = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<uint64_t> reversed(ids.rbegin(), ids.rend());
  std::vector<uint64_t> dups = {8, 7, 6, 5, 4, 3, 2, 1, 1, 2, 3, 8, 8};
  const auto s1 = BuildColumnSketch("c", CodesFor(ids, &d1), d1, opts);
  const auto s2 = BuildColumnSketch("c", CodesFor(dups, &d2), d2, opts);
  EXPECT_EQ(s1.signature, s2.signature);
  EXPECT_EQ(s1.profile.distinct, s2.profile.distinct);
}

TEST(ColumnSketchTest, EmptyAndNullColumns) {
  ValueDict dict;
  SketchOptions opts;
  const std::vector<uint32_t> empty;
  const std::vector<uint32_t> nulls(5, ValueDict::kNullCode);
  const auto se = BuildColumnSketch("e", empty, dict, opts);
  const auto sn = BuildColumnSketch("n", nulls, dict, opts);
  EXPECT_TRUE(se.empty());
  EXPECT_TRUE(sn.empty());
  EXPECT_EQ(sn.profile.nulls, 5u);
  EXPECT_EQ(EstimateJaccard(se, sn), 0.0);
}

TEST(ColumnSketchTest, CodeAndValueBuildersAgreeBitForBit) {
  // BuildColumnSketch (codes) and BuildColumnSketchFromValues (cells) each
  // dedup on their own, yet must produce the same sketch: a registered
  // table and an ad-hoc query of the same cells have to score alike.
  const auto bits = [](double d) {
    uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
  };
  Rng rng(23);
  SketchOptions opts;
  for (int trial = 0; trial < 300; ++trial) {
    // Cells drawn with replacement from a small pool, so columns repeat
    // values; ±0.0 are one value to both builders.
    std::vector<Value> pool;
    const size_t pool_size = 1 + rng.Uniform(60);
    for (size_t i = 0; i < pool_size; ++i) {
      switch (rng.Uniform(6)) {
        case 0:
          pool.push_back(Value::Null());
          break;
        case 1:
          pool.push_back(Value::Int(rng.UniformInt(-500, 500)));
          break;
        case 2:
          pool.push_back(Value::Double(0.25 * rng.UniformInt(-40, 40)));
          break;
        case 3:
          pool.push_back(Value::Double(rng.Bernoulli(0.5) ? -0.0 : 0.0));
          break;
        case 4:
          pool.push_back(Value::Bool(rng.Bernoulli(0.5)));
          break;
        default:
          pool.push_back(Value::String(rng.AlphaString(rng.Uniform(12))));
          break;
      }
    }
    std::vector<Value> cells;
    const size_t rows = rng.Uniform(401);
    for (size_t r = 0; r < rows; ++r) {
      cells.push_back(pool[rng.Uniform(pool_size)]);
    }
    ValueDict dict;
    std::vector<uint32_t> codes;
    for (const Value& v : cells) codes.push_back(dict.Intern(v));
    std::vector<uint32_t> shuffled = codes;
    rng.Shuffle(&shuffled);

    const ColumnSketch want = BuildColumnSketch("c", codes, dict, opts);
    const ColumnSketch from_values =
        BuildColumnSketchFromValues("c", cells, opts);
    const ColumnSketch from_shuffled =
        BuildColumnSketch("c", shuffled, dict, opts);
    for (const ColumnSketch* got : {&from_values, &from_shuffled}) {
      const char* which = got == &from_values ? "values" : "shuffled";
      ASSERT_EQ(got->signature, want.signature) << trial << " " << which;
      const ColumnProfile& p = got->profile;
      const ColumnProfile& q = want.profile;
      EXPECT_EQ(p.rows, q.rows) << trial << " " << which;
      EXPECT_EQ(p.nulls, q.nulls) << trial << " " << which;
      EXPECT_EQ(p.distinct, q.distinct) << trial << " " << which;
      EXPECT_EQ(bits(p.frac_string), bits(q.frac_string)) << trial;
      EXPECT_EQ(bits(p.frac_int), bits(q.frac_int)) << trial;
      EXPECT_EQ(bits(p.frac_double), bits(q.frac_double)) << trial;
      EXPECT_EQ(bits(p.frac_bool), bits(q.frac_bool)) << trial;
      EXPECT_EQ(bits(p.avg_len), bits(q.avg_len)) << trial << " " << which;
    }
  }
}

// --------------------------------------------------------------------- LSH

TEST(LshIndexTest, CollidesEqualDropsDisjointAndRemoves) {
  Rng rng(11);
  LshIndex lsh(16, 4);
  auto random_sig = [&] {
    std::vector<uint64_t> s(64);
    for (auto& x : s) x = rng.Next();
    return s;
  };
  const auto sig_a = random_sig();
  const auto sig_b = sig_a;  // identical → collides in every band
  lsh.Add(1, sig_a);
  lsh.Add(2, sig_b);
  for (int i = 0; i < 20; ++i) lsh.Add(100 + i, random_sig());
  EXPECT_EQ(lsh.num_entries(), 22u);

  auto hits = lsh.Query(sig_a);
  EXPECT_TRUE(std::count(hits.begin(), hits.end(), 1u));
  EXPECT_TRUE(std::count(hits.begin(), hits.end(), 2u));
  // Independent random signatures collide with negligible probability.
  EXPECT_LE(hits.size(), 2u + 1u);

  lsh.Remove(2, sig_b);
  hits = lsh.Query(sig_a);
  EXPECT_FALSE(std::count(hits.begin(), hits.end(), 2u));
  EXPECT_EQ(lsh.num_entries(), 21u);
}

// ----------------------------------------------------------------- datagen

TEST(LakeGeneratorTest, ShapeAndDeterminism) {
  LakeOptions opts;
  opts.num_tables = 30;
  opts.num_groups = 4;
  opts.group_size = 5;
  opts.rows_per_table = 20;
  auto lake = GenerateLake(opts);
  ASSERT_EQ(lake.tables.size(), 30u);
  ASSERT_EQ(lake.groups.size(), 4u);
  for (const auto& g : lake.groups) EXPECT_EQ(g.size(), 5u);
  // Same seed → identical lake, different seed → different cells.
  auto again = GenerateLake(opts);
  EXPECT_TRUE(lake.tables[3].At(7, 1) == again.tables[3].At(7, 1));
  opts.seed += 1;
  auto other = GenerateLake(opts);
  bool any_diff = false;
  for (size_t r = 0; r < 20 && !any_diff; ++r) {
    any_diff = !(lake.tables[0].At(r, 0) == other.tables[0].At(r, 0));
  }
  EXPECT_TRUE(any_diff);
}

// ---------------------------------------------------------- engine-level

std::unique_ptr<LakeEngine> MakeLakeEngine(const GeneratedLake& lake,
                                           size_t threads,
                                           bool build_at_register = true) {
  auto engine = LakeEngine::Create(
      EngineOptions()
          .SetNumThreads(threads)
          .SetDiscovery(
              DiscoveryOptions().SetBuildAtRegister(build_at_register)));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  for (const auto& t : lake.tables) {
    EXPECT_TRUE((*engine)->RegisterTable(t.name(), t).ok());
  }
  return std::move(engine).value();
}

TEST(DiscoveryTest, RecallOnPlantedLakeOf200Tables) {
  // The acceptance-criterion instance: >= 200 tables, planted groups,
  // recall >= 0.9 for planted members at k = group size.
  LakeOptions opts;  // defaults: 24 groups x 5 + 80 noise = 200 tables
  auto lake = GenerateLake(opts);
  ASSERT_GE(lake.tables.size(), 200u);
  auto engine = MakeLakeEngine(lake, /*threads=*/1);
  EXPECT_EQ(engine->discovery_index().num_tables(), lake.tables.size());

  size_t expected = 0, found = 0;
  for (const auto& group : lake.groups) {
    for (const auto& member : group) {
      auto top = engine->DiscoverUnionable(member, opts.group_size);
      ASSERT_TRUE(top.ok()) << top.status().ToString();
      std::unordered_set<std::string> names;
      for (const auto& c : *top) names.insert(c.name);
      for (const auto& partner : group) {
        if (partner == member) continue;
        ++expected;
        found += names.count(partner);
      }
    }
  }
  const double recall =
      static_cast<double>(found) / static_cast<double>(expected);
  EXPECT_GE(recall, 0.9) << found << "/" << expected;
}

TEST(DiscoveryTest, CandidatesCarryUsefulScores) {
  LakeOptions opts;
  opts.num_tables = 12;
  opts.num_groups = 2;
  opts.group_size = 4;
  auto lake = GenerateLake(opts);
  auto engine = MakeLakeEngine(lake, 1);
  auto top = engine->DiscoverUnionable(lake.groups[0][0], 3);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 3u);
  for (const auto& c : *top) {
    // All three hits are the query's group partners: shared values and a
    // shared schema.
    EXPECT_GT(c.overlap, 0.2) << c.name;
    EXPECT_GT(c.compat, 0.5) << c.name;
    EXPECT_EQ(c.matched_columns, opts.columns_per_table);
    EXPECT_GT(c.score, 0.0);
    EXPECT_LE(c.score, 1.0);
  }
  // Ranked: scores non-increasing.
  for (size_t i = 1; i < top->size(); ++i) {
    EXPECT_GE((*top)[i - 1].score, (*top)[i].score);
  }
}

TEST(DiscoveryTest, TopKIdenticalAcrossIndexBuildThreadsAndBuildModes) {
  LakeOptions opts;
  opts.num_tables = 40;
  opts.num_groups = 6;
  opts.group_size = 4;
  opts.rows_per_table = 30;
  auto lake = GenerateLake(opts);

  // Eager builds at 1/2/8 threads, plus a lazy bulk build at 8 threads
  // (resync path): same lake must yield bit-identical candidate lists.
  std::vector<std::unique_ptr<LakeEngine>> engines;
  engines.push_back(MakeLakeEngine(lake, 1));
  engines.push_back(MakeLakeEngine(lake, 2));
  engines.push_back(MakeLakeEngine(lake, 8));
  engines.push_back(MakeLakeEngine(lake, 8, /*build_at_register=*/false));

  for (const auto& group : lake.groups) {
    const std::string& query = group[0];
    auto reference = engines[0]->DiscoverUnionable(query, 6);
    ASSERT_TRUE(reference.ok());
    for (size_t e = 1; e < engines.size(); ++e) {
      auto got = engines[e]->DiscoverUnionable(query, 6);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->size(), reference->size()) << "engine " << e;
      for (size_t i = 0; i < got->size(); ++i) {
        EXPECT_EQ((*got)[i].name, (*reference)[i].name)
            << "engine " << e << " rank " << i;
        // Bit-identical scores: sketches depend on value content only.
        EXPECT_EQ((*got)[i].score, (*reference)[i].score);
        EXPECT_EQ((*got)[i].overlap, (*reference)[i].overlap);
      }
    }
  }
}

TEST(DiscoveryTest, LazyBuildSurvivesUnregisterBeforeFirstQuery) {
  // Regression: RemoveTable on a never-built (lazy) index must not
  // fast-forward the index version to the registry's — that would make the
  // empty index look current and every later query fail with kNotFound.
  LakeOptions opts;
  opts.num_tables = 8;
  opts.num_groups = 2;
  opts.group_size = 3;
  auto lake = GenerateLake(opts);
  auto engine = MakeLakeEngine(lake, 1, /*build_at_register=*/false);
  ASSERT_TRUE(engine->Unregister(lake.tables.back().name()).ok());
  auto top = engine->DiscoverUnionable(lake.groups[0][0], 2);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_EQ(top->size(), 2u);
  EXPECT_EQ(engine->discovery_index().num_tables(), lake.tables.size() - 1);
}

TEST(DiscoveryTest, AdHocQueryDoesNotGrowSessionDict) {
  LakeOptions opts;
  opts.num_tables = 8;
  opts.num_groups = 2;
  opts.group_size = 3;
  auto lake = GenerateLake(opts);
  auto engine = MakeLakeEngine(lake, 1);
  const size_t distinct_before = engine->session_dict().NumDistinct();
  auto fresh = Table::FromRows(
      "q", {"x"}, {{Value::String("never-seen-1")},
                   {Value::String("never-seen-2")}});
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(engine->DiscoverUnionable(*fresh, 2).ok());
  EXPECT_EQ(engine->session_dict().NumDistinct(), distinct_before);
}

TEST(DiscoveryTest, LazyBuildSyncsOnFirstQuery) {
  LakeOptions opts;
  opts.num_tables = 10;
  opts.num_groups = 2;
  opts.group_size = 3;
  auto lake = GenerateLake(opts);
  auto engine = MakeLakeEngine(lake, 1, /*build_at_register=*/false);
  // Nothing sketched at registration...
  EXPECT_EQ(engine->discovery_index().num_tables(), 0u);
  // ... the first query observes the version mismatch and bulk-builds.
  auto top = engine->DiscoverUnionable(lake.groups[0][0], 2);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(engine->discovery_index().num_tables(), lake.tables.size());
  EXPECT_EQ(top->size(), 2u);
}

TEST(DiscoveryTest, AdHocQueryTableFindsItsGroup) {
  LakeOptions opts;
  opts.num_tables = 16;
  opts.num_groups = 3;
  opts.group_size = 4;
  auto lake = GenerateLake(opts);
  // Hold one member out of the lake and query with the raw table.
  const std::string held_out = lake.groups[1][2];
  auto engine = LakeEngine::Create(EngineOptions());
  ASSERT_TRUE(engine.ok());
  Table query;
  for (const auto& t : lake.tables) {
    if (t.name() == held_out) {
      query = t;
      continue;
    }
    ASSERT_TRUE((*engine)->RegisterTable(t.name(), t).ok());
  }
  auto top = (*engine)->DiscoverUnionable(query, 3);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 3u);
  std::unordered_set<std::string> names;
  for (const auto& c : *top) names.insert(c.name);
  for (const auto& partner : lake.groups[1]) {
    if (partner == held_out) continue;
    EXPECT_TRUE(names.count(partner)) << partner;
  }
}

/// Collects every decoded tuple; used for bit-identity comparisons.
class CollectingSink : public RowSink {
 public:
  Status Begin(const std::vector<std::string>& names) override {
    universal_names = names;
    return Status::OK();
  }
  Status OnBatch(const std::vector<FdResultTuple>& batch) override {
    tuples.insert(tuples.end(), batch.begin(), batch.end());
    return Status::OK();
  }
  std::vector<std::string> universal_names;
  std::vector<FdResultTuple> tuples;
};

TEST(DiscoveryTest, DiscoverAndIntegrateMatchesManualIntegrateBitIdentical) {
  LakeOptions opts;
  opts.num_tables = 10;
  opts.num_groups = 2;
  opts.group_size = 3;
  opts.rows_per_table = 24;
  auto lake = GenerateLake(opts);
  const std::string query = lake.groups[0][0];

  RequestOptions req;
  req.holistic_alignment = false;  // planted groups share headers

  // Reference: engine at 1 thread, manual IntegrateToSink over the
  // discovered name list.
  auto reference_engine = MakeLakeEngine(lake, 1);
  std::vector<DiscoveryCandidate> discovered;
  CollectingSink via_discovery;
  auto report = reference_engine->DiscoverAndIntegrate(
      query, 2, &via_discovery, req, &discovered);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(discovered.size(), 2u);

  std::vector<std::string> names = {query};
  for (const auto& c : discovered) names.push_back(c.name);
  CollectingSink manual;
  auto manual_report =
      reference_engine->IntegrateToSink(names, &manual, req);
  ASSERT_TRUE(manual_report.ok());

  ASSERT_EQ(via_discovery.universal_names, manual.universal_names);
  ASSERT_EQ(via_discovery.tuples.size(), manual.tuples.size());
  for (size_t i = 0; i < manual.tuples.size(); ++i) {
    EXPECT_TRUE(via_discovery.tuples[i] == manual.tuples[i]) << "tuple " << i;
  }

  // And across index-build thread counts the full discover+integrate output
  // stays byte-identical.
  for (size_t threads : {2u, 8u}) {
    auto engine = MakeLakeEngine(lake, threads);
    CollectingSink sink;
    auto r = engine->DiscoverAndIntegrate(query, 2, &sink, req);
    ASSERT_TRUE(r.ok()) << "threads=" << threads;
    ASSERT_EQ(sink.universal_names, via_discovery.universal_names);
    ASSERT_EQ(sink.tuples.size(), via_discovery.tuples.size());
    for (size_t i = 0; i < sink.tuples.size(); ++i) {
      EXPECT_TRUE(sink.tuples[i] == via_discovery.tuples[i])
          << "threads=" << threads << " tuple " << i;
    }
  }
}

TEST(DiscoveryTest, CancelMidDiscoverySurfacesAsCancelled) {
  LakeOptions opts;
  opts.num_tables = 12;
  opts.num_groups = 2;
  opts.group_size = 3;
  auto lake = GenerateLake(opts);
  auto engine = MakeLakeEngine(lake, 2);

  // Fired from the progress callback the moment discovery starts: the
  // search (or the integration behind it) must stop at a checkpoint.
  RequestOptions req;
  req.holistic_alignment = false;
  req.cancel = CancelToken::Create();
  req.progress = [&req](const ProgressEvent& e) {
    if (e.stage == Stage::kDiscover && e.done == 0) req.cancel.Cancel();
  };
  CollectingSink sink;
  auto r = engine->DiscoverAndIntegrate(lake.groups[0][0], 2, &sink, req);
  EXPECT_EQ(r.code(), ErrorCode::kCancelled);
  EXPECT_TRUE(sink.tuples.empty());

  // Pre-fired token: rejected before any work.
  CancelToken fired = CancelToken::Create();
  fired.Cancel();
  EXPECT_EQ(engine->DiscoverUnionable(lake.groups[0][0], 2, fired).code(),
            ErrorCode::kCancelled);
}

TEST(DiscoveryTest, CancelAbortsBulkResyncAndLeavesIndexStale) {
  // The bulk (lazy / stale-index) build is the dominant cost of a cold
  // discovery call; a fired token must abort it and keep the index
  // observably stale so the next call rebuilds.
  LakeOptions opts;
  opts.num_tables = 10;
  opts.num_groups = 2;
  opts.group_size = 3;
  auto lake = GenerateLake(opts);
  SessionDict dict;
  DiscoveryIndex index(DiscoveryOptions(), &dict.dict(), /*pool=*/nullptr);
  std::vector<std::pair<std::string, std::shared_ptr<const EncodedTable>>>
      snapshot;
  for (auto& t : lake.tables) {
    snapshot.emplace_back(t.name(), dict.Encode(t, t.name()));
  }
  CancelToken fired = CancelToken::Create();
  fired.Cancel();
  EXPECT_EQ(index.Resync(snapshot, /*version=*/1, fired).code(),
            ErrorCode::kCancelled);
  EXPECT_EQ(index.num_tables(), 0u);
  EXPECT_EQ(index.version(), 0u);  // still stale: next call resyncs
  ASSERT_TRUE(index.Resync(snapshot, /*version=*/1).ok());
  EXPECT_EQ(index.num_tables(), lake.tables.size());
  EXPECT_EQ(index.version(), 1u);
}

TEST(DiscoveryTest, UnregisterRemovesFromIndexAndTypesErrors) {
  LakeOptions opts;
  opts.num_tables = 8;
  opts.num_groups = 2;
  opts.group_size = 3;
  auto lake = GenerateLake(opts);
  auto engine = MakeLakeEngine(lake, 1);

  const std::string query = lake.groups[0][0];
  const std::string partner = lake.groups[0][1];
  auto top = engine->DiscoverUnionable(query, 2);
  ASSERT_TRUE(top.ok());
  std::unordered_set<std::string> names;
  for (const auto& c : *top) names.insert(c.name);
  EXPECT_TRUE(names.count(partner));

  // Unregister the partner: discovery must stop returning it immediately.
  ASSERT_TRUE(engine->Unregister(partner).ok());
  EXPECT_EQ(engine->Unregister(partner).code(), ErrorCode::kNotFound);
  top = engine->DiscoverUnionable(query, 2);
  ASSERT_TRUE(top.ok());
  for (const auto& c : *top) EXPECT_NE(c.name, partner);

  // Discovery by a name that is gone is a typed miss.
  EXPECT_EQ(engine->DiscoverUnionable(partner, 2).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(engine->DiscoverUnionable("never-registered", 2).code(),
            ErrorCode::kNotFound);
  // k = 0 is rejected.
  EXPECT_EQ(engine->DiscoverUnionable(query, 0).code(),
            ErrorCode::kInvalidArgument);
}

// ---------------------------------------------- session-dict concurrency

TEST(DiscoveryTest, ConcurrentColdInterningStaysConsistent) {
  // The sharded intern path: many threads encoding overlapping value sets
  // concurrently must agree on one code per value, with no lost inserts.
  SessionDict dict;
  constexpr size_t kThreads = 8;
  constexpr size_t kValues = 2000;
  std::vector<std::thread> workers;
  std::vector<std::vector<uint32_t>> codes(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Each thread's column interleaves shared values (contended) with
      // private ones (cold inserts in parallel).
      Table column("t", Schema::FromNames({"v"}));
      for (size_t i = 0; i < kValues; ++i) {
        const bool shared = i % 2 == 0;
        const std::string s = shared
                                  ? "shared_" + std::to_string(i)
                                  : StrFormat("t%zu_%zu", t, i);
        EXPECT_TRUE(column.AppendRow({Value::String(s)}).ok());
      }
      codes[t] = dict.Encode(column, "t")->codes[0];
    });
  }
  for (auto& w : workers) w.join();

  // One code per distinct value: shared values agree across threads...
  for (size_t i = 0; i < kValues; i += 2) {
    for (size_t t = 1; t < kThreads; ++t) {
      ASSERT_EQ(codes[t][i], codes[0][i]) << "shared value " << i;
    }
  }
  // ... every code decodes back to its value, and the count adds up
  // (kValues/2 shared + kThreads * kValues/2 private).
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 1; i < kValues; i += 2) {
      EXPECT_EQ(dict.dict().Decode(codes[t][i]).AsString(),
                StrFormat("t%zu_%zu", t, i));
    }
  }
  EXPECT_EQ(dict.NumDistinct(), kValues / 2 + kThreads * (kValues / 2));
}

}  // namespace
}  // namespace lakefuzz
