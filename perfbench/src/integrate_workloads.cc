// imdb_fd and fuzzy_lake: a fixed set of distinct Integrate requests over
// tables resident in one engine, sent by closed-loop clients.
#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>

#include "datagen/embench.h"
#include "datagen/imdb.h"
#include "metrics/pair_eval.h"
#include "util/str.h"
#include "workloads.h"

namespace perfbench {

using lakefuzz::LakeEngine;
using lakefuzz::Result;
using lakefuzz::Status;
using lakefuzz::Table;

namespace {

struct IntegrateWorkload {
  size_t clients = 1;
  size_t workers = 1;
  std::vector<std::pair<std::string, std::shared_ptr<const Table>>> tables;
  /// Distinct requests; client c sends request (iteration·clients + c) mod n.
  std::vector<std::vector<std::string>> requests;
  lakefuzz::RequestOptions options;
  /// Output digest per request, from a serial engine.
  std::vector<uint64_t> reference;

  size_t RequestIndex(size_t client, uint64_t iteration) const {
    return static_cast<size_t>((iteration * clients + client) %
                               requests.size());
  }
};

Status RegisterAll(LakeEngine* engine, const IntegrateWorkload& w) {
  for (const auto& [name, table] : w.tables) {
    LAKEFUZZ_RETURN_IF_ERROR(engine->RegisterTable(name, table));
  }
  return Status::OK();
}

/// Reference digests from a serial engine (untimed). `on_output` sees each
/// reference output table.
Status ComputeReference(
    IntegrateWorkload* w, bool corrupt,
    const std::function<void(size_t, const Table&)>& on_output) {
  std::unique_ptr<LakeEngine> serial = MakeEngine(1);
  if (serial == nullptr) return Status::Internal("engine creation failed");
  LAKEFUZZ_RETURN_IF_ERROR(RegisterAll(serial.get(), *w));
  w->reference.clear();
  for (size_t i = 0; i < w->requests.size(); ++i) {
    Result<lakefuzz::PipelineResult> out =
        serial->Integrate(w->requests[i], w->options);
    if (!out.ok()) return out.status();
    w->reference.push_back(TableDigest(out->integrated));
    if (on_output) on_output(i, out->integrated);
  }
  if (corrupt) w->reference[0] ^= 1;
  return Status::OK();
}

/// Engine creation, registration, and one cache-warming pass over every
/// distinct request: the engine is then ready to serve.
Result<std::unique_ptr<LakeEngine>> SetUp(const IntegrateWorkload& w) {
  std::unique_ptr<LakeEngine> engine = MakeEngine(w.workers);
  if (engine == nullptr) return Status::Internal("engine creation failed");
  LAKEFUZZ_RETURN_IF_ERROR(RegisterAll(engine.get(), w));
  for (const auto& names : w.requests) {
    auto warm = engine->Integrate(names, w.options);
    if (!warm.ok()) return warm.status();
  }
  return engine;
}

/// Closed loop of engine Integrate calls, each checked against its
/// reference digest.
Recorder RunEngineLoop(const LakeEngine& engine, const IntegrateWorkload& w,
                       double seconds, double* elapsed_s) {
  return RunClosedLoop(
      w.clients, seconds,
      [&](size_t client, uint64_t it, Recorder* rec) {
        const size_t i = w.RequestIndex(client, it);
        const auto start = Clock::now();
        Result<lakefuzz::PipelineResult> out =
            engine.Integrate(w.requests[i], w.options);
        const double ms = MillisSince(start);
        rec->Add("integrate", ms,
                 out.ok() && TableDigest(out->integrated) == w.reference[i]);
      },
      elapsed_s);
}

Status MeasureIntegrate(const RunConfig& config, const IntegrateWorkload& w,
                        RunReport* report) {
  std::unique_ptr<LakeEngine> engine;
  double setup_s = 0.0;
  LAKEFUZZ_RETURN_IF_ERROR(MeasureSetup(
      [&] { engine.reset(); },
      [&]() -> Status {
        LAKEFUZZ_ASSIGN_OR_RETURN(engine, SetUp(w));
        return Status::OK();
      },
      &setup_s));
  double elapsed_s = 0.0;
  Recorder rec = RunEngineLoop(*engine, w, config.seconds, &elapsed_s);
  AddEndToEnd(rec, elapsed_s, setup_s, report);
  return Status::OK();
}

Status TraceIntegrate(const RunConfig& config, const IntegrateWorkload& w,
                      RunReport* report) {
  LAKEFUZZ_ASSIGN_OR_RETURN(std::unique_ptr<LakeEngine> engine, SetUp(w));
  std::vector<std::unique_ptr<SpanLog>> logs;
  for (size_t c = 0; c < w.clients; ++c) {
    logs.push_back(std::make_unique<SpanLog>(static_cast<uint32_t>(c)));
  }
  // Each client alternates whole request cycles: one untraced, whose median
  // time the layer spans must account for, then one with a tracer on every
  // request.
  const size_t cycle = w.requests.size();
  std::atomic<uint64_t> next_request{0};
  double elapsed_s = 0.0;
  Recorder rec = RunClosedLoop(
      w.clients, config.seconds,
      [&](size_t client, uint64_t it, Recorder* r) {
        const size_t i = w.RequestIndex(client, it);
        const bool traced = (it / cycle) % 2 == 1;
        SpanLog* log = logs[client].get();
        lakefuzz::Tracer tracer;
        lakefuzz::RequestOptions options = w.options;
        if (traced) {
          log->SetRequest(++next_request);
          options.tracer = &tracer;
        }
        const uint64_t interned_before =
            traced ? engine->session_dict().stats().values_interned : 0;
        const auto start = Clock::now();
        const int32_t root = traced ? log->Open("request") : -1;
        Result<lakefuzz::PipelineResult> out =
            engine->Integrate(w.requests[i], options);
        if (traced) log->Close(root);
        const double ms = MillisSince(start);
        r->Add(traced ? "traced" : "integrate", ms,
               out.ok() && TableDigest(out->integrated) == w.reference[i]);
        if (traced) {
          log->Import(tracer, root);
          CountEngineWork(tracer, out.ok() ? &out->report : nullptr, log);
          log->Count("fd.values_interned",
                     static_cast<double>(
                         engine->session_dict().stats().values_interned -
                         interned_before));
        }
      },
      &elapsed_s, 2 * cycle);
  report->attempted += rec.attempted;
  report->failed += rec.failed;

  std::vector<const SpanLog*> request_logs;
  for (const auto& log : logs) request_logs.push_back(log.get());
  const SpanLog setup_log(0);
  AddPerLayer(request_logs, setup_log, Median(rec.ms["integrate"]), w.workers,
              report);
  WriteSpans(config, request_logs, setup_log, report);
  return Status::OK();
}

Status Run(const RunConfig& config, const IntegrateWorkload& w,
           RunReport* report) {
  return config.trace ? TraceIntegrate(config, w, report)
                      : MeasureIntegrate(config, w, report);
}

}  // namespace

Status RunImdbFd(const RunConfig& config, RunReport* report) {
  lakefuzz::ImdbOptions gen;
  gen.target_tuples = 8000;
  gen.seed = config.seed;
  lakefuzz::ImdbBenchmark bench = lakefuzz::GenerateImdb(gen);

  IntegrateWorkload w;
  // Two workers leave two of the four cores to the host: with three, a
  // worker preempted by any other process held up the whole FD run, and ten
  // identical runs spread 0.15-0.17, against 0.06-0.07 with two in the same
  // hour.
  w.clients = 1;
  w.workers = 2;
  std::vector<std::string> names;
  for (Table& t : bench.tables) {
    names.push_back(t.name());
    w.tables.emplace_back(names.back(),
                          std::make_shared<const Table>(std::move(t)));
  }
  w.requests = {names};
  w.options.holistic_alignment = false;  // by-name, fuzzy on
  report->notes.push_back(lakefuzz::StrFormat(
      "imdb_fd: %zu tables, %zu tuples, by-name alignment, fuzzy on",
      w.tables.size(), bench.total_tuples));
  LAKEFUZZ_RETURN_IF_ERROR(
      ComputeReference(&w, config.corrupt_reference, nullptr));
  return Run(config, w, report);
}

Status RunFuzzyLake(const RunConfig& config, RunReport* report) {
  constexpr size_t kGroups = 40;
  constexpr size_t kEntities = 300;
  constexpr size_t kTables = 3;
  IntegrateWorkload w;
  // One client, as on the other workloads. Two clients sharing the engine
  // made the latency follow the host's load rather than the program: with
  // two workers as well, the p90 spread 0.14-0.30 over ten identical runs on
  // a shared 4-vCPU host; on a serial engine, how often the two requests
  // overlapped moved the p50 by up to 0.27.
  w.clients = 1;
  w.workers = 2;
  w.options.holistic_alignment = true;
  w.options.include_provenance = true;

  // Input-TID pairs that belong to one planted entity, per group; TIDs of
  // group g are offset by g << 32 so pairs never collide across groups.
  std::set<lakefuzz::ItemPair> truth;
  size_t tuples = 0;
  for (size_t g = 0; g < kGroups; ++g) {
    lakefuzz::EmBenchOptions gen;
    gen.num_entities = kEntities;
    gen.num_tables = kTables;
    gen.seed = config.seed * 1000 + g;
    lakefuzz::EmBenchmark bench = lakefuzz::GenerateEmBenchmark(gen);
    std::vector<std::string> names;
    for (size_t t = 0; t < bench.tables.size(); ++t) {
      names.push_back(lakefuzz::StrFormat("g%02zu_t%zu", g, t));
      tuples += bench.tables[t].NumRows();
      w.tables.emplace_back(names.back(), std::make_shared<const Table>(
                                              std::move(bench.tables[t])));
    }
    w.requests.push_back(names);
    std::map<uint64_t, std::vector<uint64_t>> by_entity;
    for (const auto& [tid, entity] : bench.tid_entity) {
      by_entity[entity].push_back((uint64_t{g} << 32) | tid);
    }
    for (const auto& [entity, tids] : by_entity) {
      for (size_t a = 0; a < tids.size(); ++a) {
        for (size_t b = a + 1; b < tids.size(); ++b) {
          truth.insert(lakefuzz::MakePair(tids[a], tids[b]));
        }
      }
    }
  }
  report->notes.push_back(lakefuzz::StrFormat(
      "fuzzy_lake: %zu groups x %zu tables, %zu tuples, holistic alignment, "
      "provenance on",
      kGroups, kTables, tuples));

  // pair_f1: input-TID pairs sharing an output tuple (from the provenance
  // column "{t0,t3}") against the planted entity labels.
  std::set<lakefuzz::ItemPair> predicted;
  auto collect = [&](size_t g, const Table& out) {
    for (size_t r = 0; r < out.NumRows(); ++r) {
      const std::string prov = out.At(r, 0).ToString();
      std::vector<uint64_t> tids;
      for (size_t pos = prov.find('t'); pos != std::string::npos;
           pos = prov.find('t', pos + 1)) {
        tids.push_back((uint64_t{g} << 32) |
                       std::strtoull(prov.c_str() + pos + 1, nullptr, 10));
      }
      for (size_t a = 0; a < tids.size(); ++a) {
        for (size_t b = a + 1; b < tids.size(); ++b) {
          predicted.insert(lakefuzz::MakePair(tids[a], tids[b]));
        }
      }
    }
  };
  LAKEFUZZ_RETURN_IF_ERROR(
      ComputeReference(&w, config.corrupt_reference, collect));
  report->info.push_back(
      {"pair_f1", lakefuzz::EvaluatePairs(predicted, truth).f1(), "ratio"});
  return Run(config, w, report);
}

}  // namespace perfbench
