// Catalog restart benchmark: cold lake build vs warm OpenCatalog.
//
// Generates the standard planted-group lake (datagen/lake.h), then measures
// the three phases of a catalog-backed restart:
//
//   1. COLD build: register every table into a fresh engine and run one
//      discovery probe — the price a catalog-less process pays on every
//      start (sketching the whole lake, interning every value);
//   2. SAVE: SaveCatalog checkpoints the dictionary, code columns, sketches
//      and LSH band keys to disk (atomic manifest commit);
//   3. WARM open: a fresh engine per thread count mmaps the catalog back.
//      The gates are hard: zero columns re-sketched, every table loaded,
//      top-k discovery identical to cold, and one Integrate byte-identical
//      to the cold engine's answer — warm must be a restart, not a rebuild.
//
// Flags:
//   --tables=N --groups=N --group_size=N   lake shape (default 240/24/5)
//   --rows=N --cols=N                      table shape (default 800/6)
//   --overlap=P        member-vs-pool sampling fraction (default 0.8)
//   --reps=N           repetitions, best time kept (default 3)
//   --threads=a,b,c    warm-open sweep (default "1,2,8")
//   --dir=PATH         catalog directory (default: under TMPDIR)
//   --smoke            tiny instance + 1 rep: CI bit-rot guard
//   --json_out=PATH    machine-readable artifact (bench-regression gate)
//
// Warm open is dominated by the dictionary replay + table materialization;
// sketches and band keys load as raw bytes. The speedup over cold grows
// with rows-per-table (sketching is the cold path's dominant term).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>

#include "bench_common.h"
#include "core/engine.h"
#include "datagen/lake.h"
#include "obs/stats_export.h"
#include "util/rss.h"

using namespace lakefuzz;

namespace {

std::unique_ptr<LakeEngine> MakeEngine(size_t threads) {
  auto engine =
      LakeEngine::Create(EngineOptions().SetNumThreads(threads));
  if (!engine.ok()) {
    std::fprintf(stderr, "engine setup failed: %s\n",
                 engine.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(engine).value();
}

std::vector<std::string> CandidateNames(
    const std::vector<DiscoveryCandidate>& candidates) {
  std::vector<std::string> out;
  out.reserve(candidates.size());
  for (const auto& c : candidates) out.push_back(c.name);
  return out;
}

bool TablesIdentical(const Table& a, const Table& b) {
  if (a.NumRows() != b.NumRows() || a.NumColumns() != b.NumColumns()) {
    return false;
  }
  for (size_t r = 0; r < a.NumRows(); ++r) {
    for (size_t c = 0; c < a.NumColumns(); ++c) {
      if (!(a.At(r, c) == b.At(r, c))) return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  LakeOptions lake_opts;
  lake_opts.num_tables =
      static_cast<size_t>(flags.GetInt("tables", smoke ? 24 : 240));
  lake_opts.num_groups =
      static_cast<size_t>(flags.GetInt("groups", smoke ? 4 : 24));
  lake_opts.group_size =
      static_cast<size_t>(flags.GetInt("group_size", smoke ? 3 : 5));
  lake_opts.rows_per_table =
      static_cast<size_t>(flags.GetInt("rows", smoke ? 40 : 800));
  lake_opts.columns_per_table =
      static_cast<size_t>(flags.GetInt("cols", 6));
  lake_opts.value_overlap = flags.GetDouble("overlap", 0.8);
  const int reps = static_cast<int>(flags.GetInt("reps", smoke ? 1 : 3));
  std::string sweep = flags.GetString("threads", smoke ? "1,2" : "1,2,8");
  std::string json_out = flags.GetString("json_out", "");
  std::string dir = flags.GetString("dir", "");
  if (dir.empty()) {
    dir = (std::filesystem::temp_directory_path() / "lakefuzz_bench_catalog")
              .string();
  }
  std::filesystem::remove_all(dir);
  BenchJsonWriter json;

  if (lake_opts.num_tables < lake_opts.num_groups * lake_opts.group_size) {
    std::fprintf(stderr, "lake shape: tables < groups * group_size\n");
    return 1;
  }
  auto lake = GenerateLake(lake_opts);
  std::printf(
      "=== catalog restart: cold build vs warm mmap open ===\n"
      "%zu tables, %zu x %zu cells each, catalog dir %s\n\n",
      lake.tables.size(), lake_opts.rows_per_table,
      lake_opts.columns_per_table, dir.c_str());

  const std::string probe = lake.groups[0][0];
  const size_t k = lake_opts.group_size;
  RequestOptions integrate_req;
  integrate_req.holistic_alignment = false;
  // One planted group integrates cheaply and deterministically — the
  // byte-identity gate for warm engines.
  const std::vector<std::string> integrate_names = lake.groups[0];

  std::vector<size_t> sweep_threads;
  for (const std::string& part : Split(sweep, ',')) {
    size_t t = 0;
    if (!ParseThreadCount(part, &t)) {
      std::fprintf(stderr, "--threads: skipping invalid entry \"%s\"\n",
                   part.c_str());
      continue;
    }
    sweep_threads.push_back(t);
  }
  std::stable_partition(sweep_threads.begin(), sweep_threads.end(),
                        [](size_t t) { return t == 1; });
  if (sweep_threads.empty() || sweep_threads.front() != 1) {
    std::fprintf(stderr, "--threads must include 1 (the serial baseline)\n");
    return 1;
  }

  // ---- phase 1: cold build (serial — the restart price being amortized).
  BenchRunStats cold_run;
  double cold_ms = 1e100;
  double cold_rss_delta_mb = 0.0;
  std::unique_ptr<LakeEngine> cold_engine;
  std::vector<std::string> cold_topk;
  for (int rep = 0; rep < reps; ++rep) {
    const size_t rss_before = CurrentRssBytes();
    auto engine = MakeEngine(1);
    Stopwatch watch;
    for (const auto& t : lake.tables) {
      Status s = engine->RegisterTable(t.name(), t);
      if (!s.ok()) {
        std::fprintf(stderr, "register failed: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    auto top = engine->DiscoverUnionable(probe, k);
    const double ms = watch.ElapsedMillis();
    if (!top.ok()) {
      std::fprintf(stderr, "cold discovery failed: %s\n",
                   top.status().ToString().c_str());
      return 1;
    }
    cold_run.unit_ms.push_back(ms);
    if (ms < cold_ms) cold_ms = ms;
    cold_topk = CandidateNames(*top);
    if (cold_engine == nullptr) {
      // rss_delta_mb stays rep 0's: that engine is kept for the save below,
      // and a later rep builds into memory that freed engines leave behind,
      // so its delta would understate a build's footprint.
      cold_engine = std::move(engine);
      const size_t rss_after = CurrentRssBytes();
      if (rss_after > rss_before) {
        cold_rss_delta_mb =
            static_cast<double>(rss_after - rss_before) / (1 << 20);
      }
    }
  }
  json.AddFromStats("catalog_cold_build", 1, cold_run,
                    {{"build_ms", cold_ms},
                     {"tables", static_cast<double>(lake.tables.size())},
                     {"rss_delta_mb", cold_rss_delta_mb}});
  std::printf("cold build t=1: %.1f ms (%zu tables sketched + interned)\n",
              cold_ms, lake.tables.size());

  auto cold_integrated = cold_engine->Integrate(integrate_names,
                                                integrate_req);
  if (!cold_integrated.ok()) {
    std::fprintf(stderr, "cold integrate failed: %s\n",
                 cold_integrated.status().ToString().c_str());
    return 1;
  }

  // ---- phase 2: save.
  Stopwatch save_watch;
  auto saved = cold_engine->SaveCatalog(dir);
  const double save_ms = save_watch.ElapsedMillis();
  if (!saved.ok()) {
    std::fprintf(stderr, "SaveCatalog failed: %s\n",
                 saved.status().ToString().c_str());
    return 1;
  }
  BenchRunStats save_run;
  save_run.unit_ms.push_back(save_ms);
  json.AddFromStats(
      "catalog_save", 1, save_run,
      {{"save_ms", save_ms},
       {"bytes_written", static_cast<double>(saved->bytes_written)},
       {"tables_written", static_cast<double>(saved->tables_written)},
       {"columns_resketched",
        static_cast<double>(saved->columns_resketched)}});
  std::printf("save: %.1f ms, %.2f MB written, %zu tables\n", save_ms,
              static_cast<double>(saved->bytes_written) / (1 << 20),
              saved->tables_written);

  // ---- phase 3: warm open sweep. Every gate is fatal: this artifact
  // certifies restart correctness, not just speed.
  for (size_t t : sweep_threads) {
    BenchRunStats run;
    double warm_ms = 1e100;
    for (int rep = 0; rep < reps; ++rep) {
      auto engine = MakeEngine(t);
      Stopwatch watch;
      auto opened = engine->OpenCatalog(dir);
      const double open_ms = watch.ElapsedMillis();
      if (!opened.ok()) {
        std::fprintf(stderr, "OpenCatalog failed at t=%zu: %s\n", t,
                     opened.status().ToString().c_str());
        return 1;
      }
      run.unit_ms.push_back(open_ms);
      if (open_ms < warm_ms) warm_ms = open_ms;
      if (opened->columns_resketched != 0) {
        std::fprintf(stderr,
                     "warm open re-sketched %zu columns (must be 0)\n",
                     opened->columns_resketched);
        return 1;
      }
      if (opened->tables_loaded != lake.tables.size()) {
        std::fprintf(stderr, "warm open loaded %zu of %zu tables\n",
                     opened->tables_loaded, lake.tables.size());
        return 1;
      }
      auto top = engine->DiscoverUnionable(probe, k);
      if (!top.ok() || CandidateNames(*top) != cold_topk) {
        std::fprintf(stderr, "warm top-k differs from cold at t=%zu\n", t);
        return 1;
      }
      auto integrated = engine->Integrate(integrate_names, integrate_req);
      if (!integrated.ok() ||
          !TablesIdentical(integrated->integrated,
                           cold_integrated->integrated)) {
        std::fprintf(stderr,
                     "warm Integrate differs from cold at t=%zu\n", t);
        return 1;
      }
      if (rep + 1 == reps) {
        json.AddFromStats(
            StrFormat("catalog_warm_open_t%zu", t), ResolveNumThreads(t),
            run,
            {{"open_ms", warm_ms},
             {"speedup_vs_cold", cold_ms / warm_ms},
             {"mmap_mb",
              static_cast<double>(opened->mapped_bytes) / (1 << 20)},
             {"peak_rss_mb", PeakRssMb()},
             {"tables", static_cast<double>(opened->tables_loaded)},
             {"resketched",
              static_cast<double>(opened->columns_resketched)}});
      }
    }
    std::printf(
        "warm open t=%zu: %.1f ms (%.2fx vs cold), 0 columns re-sketched, "
        "top-k + Integrate identical\n",
        t, warm_ms, cold_ms / warm_ms);
  }

  // ---- phase 4: read-only replica open. Same identity gates as the warm
  // writer open, plus the refresh fast path (no new generation → the poll
  // must cost a locked CURRENT read, not a reload).
  {
    BenchRunStats run;
    double replica_ms = 1e100;
    for (int rep = 0; rep < reps; ++rep) {
      Stopwatch watch;
      auto replica = LakeEngine::OpenReplica(
          dir, EngineOptions().SetNumThreads(1));
      const double open_ms = watch.ElapsedMillis();
      if (!replica.ok()) {
        std::fprintf(stderr, "OpenReplica failed: %s\n",
                     replica.status().ToString().c_str());
        return 1;
      }
      run.unit_ms.push_back(open_ms);
      if (open_ms < replica_ms) replica_ms = open_ms;
      auto top = (*replica)->DiscoverUnionable(probe, k);
      if (!top.ok() || CandidateNames(*top) != cold_topk) {
        std::fprintf(stderr, "replica top-k differs from cold\n");
        return 1;
      }
      auto integrated =
          (*replica)->Integrate(integrate_names, integrate_req);
      if (!integrated.ok() ||
          !TablesIdentical(integrated->integrated,
                           cold_integrated->integrated)) {
        std::fprintf(stderr, "replica Integrate differs from cold\n");
        return 1;
      }
      Stopwatch refresh_watch;
      auto refreshed = (*replica)->RefreshReplica();
      const double refresh_ms = refresh_watch.ElapsedMillis();
      if (!refreshed.ok() ||
          refreshed->generation != (*replica)->catalog_generation()) {
        std::fprintf(stderr, "replica refresh fast path failed\n");
        return 1;
      }
      if (rep + 1 == reps) {
        json.AddFromStats(
            "catalog_replica_open", 1, run,
            {{"open_ms", replica_ms},
             {"refresh_noop_ms", refresh_ms},
             {"generation",
              static_cast<double>((*replica)->catalog_generation())},
             {"tables",
              static_cast<double>((*replica)->NumTables())}});
        std::printf(
            "replica open t=1: %.1f ms, no-op refresh %.3f ms, top-k + "
            "Integrate identical\n",
            replica_ms, refresh_ms);
      }
    }
  }

  if (!json.WriteFile(json_out)) return 1;
  std::printf(
      "\nExpected shape: warm open skips all sketching (signatures and LSH "
      "band\nkeys load as raw bytes) and replays the dictionary once, so it "
      "beats the\ncold build by a widening margin as rows-per-table grows. "
      "The identity\ngates make the artifact a restart-correctness check, "
      "not just a timer.\n");
  return 0;
}
