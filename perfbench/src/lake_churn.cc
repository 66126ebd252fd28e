// lake_churn: writes beside reads on a resident lake. The lake is a ring of
// generated tables; a window of them is resident. Loop i registers the next
// ring table from its CSV, discovers its top-k unionable partners,
// integrates it with them, unregisters the oldest resident table, and every
// few loops checkpoints the catalog incrementally. Every registration bumps
// the registry version, so integrates here run cold: the schema cache always
// misses and the new table's column codes are computed afresh.
//
// After one ring period the resident set repeats exactly, so the serial
// reference replays one period and loop i is checked against loop i mod T.
//
// The lake shape is the default of bench_discovery and
// bench_catalog_restart (240 tables, 24 planted groups of 5, 6 columns)
// with 200 rows instead of 800: a cold 5-table Integrate took 220-2,460 ms
// serially at 800 rows against 40-210 ms at 200 (4-vCPU VM), and the
// serial reference replay of one ring period has to fit the 180 s a run may
// take. The README records the measurements behind every constant here.
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <set>

#include "datagen/corruption.h"
#include "datagen/lake.h"
#include "table/csv.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/str.h"
#include "workloads.h"

namespace perfbench {

using lakefuzz::LakeEngine;
using lakefuzz::Result;
using lakefuzz::Status;
using lakefuzz::Table;

namespace {

constexpr size_t kRingTables = 240;
constexpr size_t kGroups = 24;
constexpr size_t kGroupSize = 5;
constexpr size_t kRows = 200;
constexpr size_t kColumns = 6;
/// Share of a planted member's cells corrupted: bench_fd_skew's default
/// key-cell corruption rate.
constexpr double kCorruptCell = 0.15;
/// Resident tables between loops (the window slides over the ring); the
/// last quarter of the ring is the stream of new tables.
constexpr size_t kResident = 180;
constexpr size_t kTopK = kGroupSize - 1;
/// 30 checkpoints per ring period at ~1% of loop time (measured).
constexpr size_t kCheckpointEvery = 8;
/// Two of the four cores stay free for the host, as on imdb_fd.
constexpr size_t kWorkers = 2;
/// Lake headers are not trusted: every integrate aligns by content.
constexpr bool kHolistic = true;

struct ChurnLake {
  /// Ring order: loop i registers ring[(kResident + i) % T] and
  /// unregisters ring[i % T].
  std::vector<std::string> names;
  std::vector<std::string> csv_paths;
  std::vector<double> cell_bytes;
  /// Planted group per table name (-1 for noise tables).
  std::map<std::string, int> group_of;
  /// Catalog holding the first kResident ring tables; copied, never written.
  std::string pristine_dir;

  size_t NewIndex(uint64_t loop) const {
    return static_cast<size_t>((kResident + loop) % names.size());
  }
  size_t OldIndex(uint64_t loop) const {
    return static_cast<size_t>(loop % names.size());
  }
};

/// Outputs of one loop that the reference fixes.
struct LoopOutput {
  uint64_t discover = 0;
  uint64_t integrate = 0;
  std::vector<std::string> partners;  ///< discovered names, rank order
  /// Summed latency of the loop's engine calls (output checks excluded).
  double ms = 0.0;
};

uint64_t CandidateDigest(
    const std::vector<lakefuzz::DiscoveryCandidate>& candidates) {
  uint64_t h = lakefuzz::Fnv1a64("perfbench-discover");
  for (const auto& c : candidates) {
    uint64_t bits = 0;
    std::memcpy(&bits, &c.score, sizeof(bits));
    h = lakefuzz::HashCombine(h, lakefuzz::Fnv1a64(c.name));
    h = lakefuzz::HashCombine(h, bits);
  }
  return h;
}

lakefuzz::RequestOptions IntegrateOptions() {
  lakefuzz::RequestOptions options;
  options.holistic_alignment = kHolistic;
  return options;
}

Result<ChurnLake> Generate(const RunConfig& config) {
  lakefuzz::LakeOptions gen;
  gen.num_tables = kRingTables;
  gen.num_groups = kGroups;
  gen.group_size = kGroupSize;
  gen.rows_per_table = kRows;
  gen.columns_per_table = kColumns;
  // The clean lake is datagen/lake's default-seed lake, as in the lake
  // benches; --seed draws the corruption and the ring order.
  lakefuzz::GeneratedLake lake = lakefuzz::GenerateLake(gen);

  ChurnLake out;
  lakefuzz::Rng rng(config.seed ^ 0x6c616b65ull);
  // The mix datagen/embench applies to corrupted join names.
  lakefuzz::CorruptionConfig noise;
  noise.typo = 0.45;
  noise.case_noise = 0.25;
  noise.reverse_tokens = 0.3;
  for (size_t g = 0; g < lake.groups.size(); ++g) {
    for (const auto& name : lake.groups[g]) {
      out.group_of[name] = static_cast<int>(g);
    }
  }
  for (Table& t : lake.tables) {
    if (out.group_of.count(t.name()) == 0) out.group_of[t.name()] = -1;
    if (out.group_of[t.name()] < 0) continue;
    for (size_t r = 0; r < t.NumRows(); ++r) {
      for (size_t c = 0; c < t.NumColumns(); ++c) {
        const lakefuzz::Value& v = t.At(r, c);
        if (v.is_null() || !rng.Bernoulli(kCorruptCell)) continue;
        t.Set(r, c, lakefuzz::Value::String(
                        lakefuzz::Corrupt(&rng, v.ToString(), noise)));
      }
    }
  }
  std::vector<size_t> order(lake.tables.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(&order);

  const std::string csv_dir = config.work_dir + "/csv";
  std::filesystem::create_directories(csv_dir);
  for (size_t idx : order) {
    const Table& t = lake.tables[idx];
    const std::string path = csv_dir + "/" + t.name() + ".csv";
    LAKEFUZZ_RETURN_IF_ERROR(lakefuzz::WriteCsvFile(t, path));
    double bytes = 0;
    for (size_t r = 0; r < t.NumRows(); ++r) {
      for (size_t c = 0; c < t.NumColumns(); ++c) {
        if (!t.At(r, c).is_null()) bytes += t.At(r, c).ToString().size();
      }
    }
    out.names.push_back(t.name());
    out.csv_paths.push_back(path);
    out.cell_bytes.push_back(bytes);
  }

  out.pristine_dir = config.work_dir + "/catalog-pristine";
  std::unique_ptr<LakeEngine> writer = MakeEngine(kWorkers);
  if (writer == nullptr) return Status::Internal("engine creation failed");
  for (size_t i = 0; i < kResident; ++i) {
    LAKEFUZZ_RETURN_IF_ERROR(
        writer->RegisterCsv(out.names[i], out.csv_paths[i]));
  }
  LAKEFUZZ_RETURN_IF_ERROR(writer->SaveCatalog(out.pristine_dir).status());
  return out;
}

/// A fresh writable copy of the pristine catalog.
Result<std::string> CatalogCopy(const ChurnLake& lake, const RunConfig& config,
                                const std::string& label) {
  const std::string dir = config.work_dir + "/catalog-" + label;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::copy(lake.pristine_dir, dir,
                        std::filesystem::copy_options::recursive, ec);
  if (ec) return Status::IoError("copying catalog: " + ec.message());
  return dir;
}

/// RegisterCsv split at the one seam the benchmark can see: it is
/// ReadCsvFile then RegisterTable, and the engine records no span in
/// either. RegisterTable inserts into the registry, pins the table in the
/// session dictionary and sketches it for discovery (sketching interns
/// through that dictionary); the engine has no seam between the three, so
/// the one span is attributed to discovery.
Status TracedRegisterCsv(LakeEngine* engine, const std::string& name,
                         const std::string& path, SpanLog* log) {
  Result<Table> table = Status::Internal("unreachable");
  {
    Span span(log, "table.csv_parse");
    table = lakefuzz::ReadCsvFile(path);
  }
  if (!table.ok()) return table.status();
  table->set_name(name);
  Span span(log, "discovery.sketch");
  return engine->RegisterTable(name, std::move(table).value());
}

/// Loop `loop` on an engine; latencies go to `rec` by operation. With
/// `expect` set, a discover or integrate output that differs from it counts
/// as a failed operation. With `log` set, the loop is one traced request:
/// the engine calls carry one tracer whose stage spans are imported under a
/// "request" root, beside the benchmark's spans for RegisterCsv and
/// Unregister, which the engine does not trace.
LoopOutput EngineLoop(LakeEngine* engine, const ChurnLake& lake,
                      const std::string& catalog_dir, uint64_t loop,
                      const LoopOutput* expect, Recorder* rec,
                      SpanLog* log = nullptr) {
  LoopOutput out;
  lakefuzz::Tracer tracer;
  lakefuzz::Tracer* traced = log != nullptr ? &tracer : nullptr;
  const int32_t root = log != nullptr ? log->Open("request") : -1;
  auto timed = [&](const char* op, Clock::time_point start, bool ok) {
    const double ms = MillisSince(start);
    out.ms += ms;
    rec->Add(op, ms, ok);
  };
  const size_t fresh = lake.NewIndex(loop);
  const std::string& name = lake.names[fresh];
  auto start = Clock::now();
  Status registered =
      log != nullptr
          ? TracedRegisterCsv(engine, name, lake.csv_paths[fresh], log)
          : engine->RegisterCsv(name, lake.csv_paths[fresh]);
  timed("register", start, registered.ok());

  lakefuzz::RequestContext ctx;
  ctx.tracer = traced;
  start = Clock::now();
  auto found = engine->DiscoverUnionable(name, kTopK, ctx);
  const double discover_ms = MillisSince(start);
  out.ms += discover_ms;
  std::vector<std::string> names{name};
  if (found.ok()) {
    out.discover = CandidateDigest(*found);
    for (const auto& c : *found) names.push_back(c.name);
  }
  out.partners.assign(names.begin() + 1, names.end());
  rec->Add("discover", discover_ms,
           found.ok() &&
               (expect == nullptr || expect->discover == out.discover));

  lakefuzz::RequestOptions options = IntegrateOptions();
  options.tracer = traced;
  start = Clock::now();
  auto integrated = engine->Integrate(names, options);
  const double integrate_ms = MillisSince(start);
  out.ms += integrate_ms;
  if (integrated.ok()) out.integrate = TableDigest(integrated->integrated);
  rec->Add("integrate", integrate_ms,
           integrated.ok() &&
               (expect == nullptr || expect->integrate == out.integrate));

  start = Clock::now();
  Status dropped = Status::OK();
  {
    std::optional<Span> span;
    if (log != nullptr) span.emplace(log, "session.unregister");
    dropped = engine->Unregister(lake.names[lake.OldIndex(loop)]);
  }
  timed("unregister", start, dropped.ok());

  if ((loop + 1) % kCheckpointEvery == 0) {
    start = Clock::now();
    auto saved = engine->SaveCatalog(catalog_dir, traced);
    timed("checkpoint", start,
          saved.ok() && saved->tables_written + saved->tables_reused ==
                            engine->NumTables());
    if (log != nullptr && saved.ok()) {
      log->Count("catalog.saves", 1);
      log->Count("catalog.bytes_written",
                 static_cast<double>(saved->bytes_written));
      log->Count("catalog.tables_written",
                 static_cast<double>(saved->tables_written));
      log->Count("catalog.tables_reused",
                 static_cast<double>(saved->tables_reused));
    }
  }
  if (log != nullptr) {
    log->Close(root);
    log->Import(tracer, root);
    CountEngineWork(tracer, integrated.ok() ? &integrated->report : nullptr,
                    log);
    log->Count("catalog.cell_bytes_registered", lake.cell_bytes[fresh]);
  }
  return out;
}

/// discover_recall over one ring period of reference loops: the share of
/// each new table's resident planted partners that its top-k holds.
double DiscoverRecall(const ChurnLake& lake,
                      const std::vector<LoopOutput>& reference) {
  double hits = 0, partners = 0;
  const size_t ring = lake.names.size();
  for (uint64_t loop = 0; loop < reference.size(); ++loop) {
    const std::string& name = lake.names[lake.NewIndex(loop)];
    const int group = lake.group_of.at(name);
    if (group < 0) continue;
    std::set<std::string> found(reference[loop].partners.begin(),
                                reference[loop].partners.end());
    // Resident while loop runs: ring positions loop .. loop + kResident.
    for (size_t k = 0; k <= kResident; ++k) {
      const std::string& other = lake.names[(loop + k) % ring];
      if (other == name || lake.group_of.at(other) != group) continue;
      partners += 1;
      hits += found.count(other);
    }
  }
  return partners > 0 ? hits / partners : 0.0;
}

Status ReferenceLoops(const ChurnLake& lake, const RunConfig& config,
                      std::vector<LoopOutput>* reference) {
  LAKEFUZZ_ASSIGN_OR_RETURN(std::string dir,
                            CatalogCopy(lake, config, "reference"));
  std::unique_ptr<LakeEngine> serial = MakeEngine(1);
  if (serial == nullptr) return Status::Internal("engine creation failed");
  LAKEFUZZ_RETURN_IF_ERROR(serial->OpenCatalog(dir).status());
  Recorder rec;
  for (uint64_t loop = 0; loop < lake.names.size(); ++loop) {
    reference->push_back(
        EngineLoop(serial.get(), lake, dir, loop, nullptr, &rec));
  }
  if (rec.failed > 0) return Status::Internal("reference replay failed");
  if (config.corrupt_reference) (*reference)[0].integrate ^= 1;
  return Status::OK();
}

Status Measure(const RunConfig& config, const ChurnLake& lake,
               const std::vector<LoopOutput>& reference, RunReport* report) {
  LAKEFUZZ_ASSIGN_OR_RETURN(std::string dir,
                            CatalogCopy(lake, config, "measured"));
  std::unique_ptr<LakeEngine> engine;
  double setup_s = 0.0;
  LAKEFUZZ_RETURN_IF_ERROR(MeasureSetup(
      [&] { engine.reset(); },
      [&]() -> Status {
        engine = MakeEngine(kWorkers);
        if (engine == nullptr) {
          return Status::Internal("engine creation failed");
        }
        return engine->OpenCatalog(dir).status();
      },
      &setup_s));
  double elapsed_s = 0.0;
  Recorder rec = RunClosedLoop(
      1, config.seconds,
      [&](size_t, uint64_t loop, Recorder* r) {
        EngineLoop(engine.get(), lake, dir, loop,
                   &reference[loop % reference.size()], r);
      },
      &elapsed_s);
  AddEndToEnd(rec, elapsed_s, setup_s, report);
  for (const char* op : {"register", "discover", "checkpoint"}) {
    report->info.push_back({std::string(op) + "_p50_ms", Median(rec.ms[op]),
                            "ms"});
  }
  return Status::OK();
}

Status Trace(const RunConfig& config, const ChurnLake& lake,
             const std::vector<LoopOutput>& reference, RunReport* report) {
  // Two engines open copies of the same catalog and run one ring period in
  // lockstep, loop by loop: one untraced, whose median loop time the layer
  // spans must account for, one traced. Which goes first alternates.
  LAKEFUZZ_ASSIGN_OR_RETURN(std::string plain_dir,
                            CatalogCopy(lake, config, "untraced"));
  LAKEFUZZ_ASSIGN_OR_RETURN(std::string traced_dir,
                            CatalogCopy(lake, config, "traced"));
  std::unique_ptr<LakeEngine> plain = MakeEngine(kWorkers);
  std::unique_ptr<LakeEngine> traced = MakeEngine(kWorkers);
  if (plain == nullptr || traced == nullptr) {
    return Status::Internal("engine creation failed");
  }
  LAKEFUZZ_RETURN_IF_ERROR(plain->OpenCatalog(plain_dir).status());
  SpanLog setup_log(1);
  {
    lakefuzz::Tracer tracer;
    LAKEFUZZ_RETURN_IF_ERROR(
        traced->OpenCatalog(traced_dir, &tracer).status());
    setup_log.Import(tracer, -1);
  }

  SpanLog log(0);
  Recorder rec;
  std::vector<double> plain_ms;
  const uint64_t interned_before =
      traced->session_dict().stats().values_interned;
  for (uint64_t loop = 0; loop < reference.size(); ++loop) {
    auto run_plain = [&] {
      plain_ms.push_back(EngineLoop(plain.get(), lake, plain_dir, loop,
                                    &reference[loop], &rec)
                             .ms);
    };
    if (loop % 2 == 0) run_plain();
    log.SetRequest(loop + 1);
    EngineLoop(traced.get(), lake, traced_dir, loop, &reference[loop], &rec,
               &log);
    if (loop % 2 == 1) run_plain();
  }
  log.Count("fd.values_interned",
            static_cast<double>(traced->session_dict().stats().values_interned -
                                interned_before));
  report->attempted += rec.attempted;
  report->failed += rec.failed;
  AddPerLayer({&log}, setup_log, Median(plain_ms), kWorkers, report);
  WriteSpans(config, {&log}, setup_log, report);
  return Status::OK();
}

}  // namespace

Status RunLakeChurn(const RunConfig& config, RunReport* report) {
  LAKEFUZZ_ASSIGN_OR_RETURN(ChurnLake lake, Generate(config));
  report->notes.push_back(lakefuzz::StrFormat(
      "lake_churn: ring of %zu tables (%zu planted groups of %zu), %zu "
      "resident, top-%zu discovery, holistic alignment, checkpoint every %zu "
      "loops",
      kRingTables, kGroups, kGroupSize, kResident, kTopK, kCheckpointEvery));
  std::vector<LoopOutput> reference;
  LAKEFUZZ_RETURN_IF_ERROR(ReferenceLoops(lake, config, &reference));
  report->info.push_back(
      {"discover_recall", DiscoverRecall(lake, reference), "ratio"});
  return config.trace ? Trace(config, lake, reference, report)
                      : Measure(config, lake, reference, report);
}

}  // namespace perfbench
