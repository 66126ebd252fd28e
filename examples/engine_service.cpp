// Session-oriented engine walkthrough: the LakeEngine API end to end.
//
//   1. Build one engine (model + shared embedding cache + worker pool).
//   2. Register the 6-table IMDB-style integration set.
//   3. Serve the same Integrate request several times — the first call
//      pays the embedding misses, later calls hit the session cache.
//   4. Stream the result through a RowSink in fixed-size batches.
//   5. Fire a CancelToken from a progress callback mid-FD and observe the
//      request fail fast with ErrorCode::kCancelled.
//   6. Discovery: ask the session which registered tables are unionable
//      with one of them (DiscoverUnionable), and — when --discover=<csv>
//      names a query file — register it, discover its top-k partners, and
//      stream the integrated result (DiscoverAndIntegrate).
//
//   7. Lifecycle hardening: run the same request under a wall-clock
//      deadline and an FD node budget (--deadline_ms / --budget_nodes,
//      kTruncate policy → partial results with a truncation report), and
//      — with --max_concurrent — overload the admission gate from
//      concurrent threads and read the admitted/queued/rejected counters.
//
//   8. Durable catalog (--catalog=<dir>): open the catalog before
//      registering — a warm start loads the dictionary, tables, sketches
//      and LSH index from the memory-mapped files and skips all sketching —
//      and checkpoint it again on exit. Run the binary twice with the same
//      --catalog to see the cold build once and the warm restart after.
//
//   9. Read-only replica (--replica=<dir>): instead of the writer
//      walkthrough, open the directory's latest committed generation as a
//      replica, serve discovery + integration from it, and poll
//      RefreshReplica() between queries — generation transitions are
//      printed as the writer (another process on the same --catalog dir)
//      keeps checkpointing. Mutations are rejected with a typed error.
//
//  10. Telemetry: every request carries a monotonically increasing id
//      (printed as req=N on its output lines). --trace_out=<dir> attaches a
//      Tracer per request and writes one Chrome trace_event JSON per request
//      (<dir>/trace_<id>.json — load in chrome://tracing or Perfetto);
//      --slow_ms=<n> arms the engine's slow-request log; --metrics_out=<path>
//      dumps the engine's Prometheus-style metrics text at exit ("-" for
//      stdout).
//
//   ./engine_service [--tuples=3000] [--calls=3] [--threads=2]
//                    [--discover=query.csv] [--discover_k=3]
//                    [--deadline_ms=0] [--budget_nodes=0]
//                    [--max_concurrent=0] [--catalog=<dir>]
//                    [--replica=<dir>] [--replica_polls=3]
//                    [--replica_poll_ms=200]
//                    [--trace_out=<dir>] [--slow_ms=0] [--metrics_out=<path|->]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "datagen/imdb.h"
#include "obs/trace.h"
#include "util/flags.h"
#include "util/str.h"

using namespace lakefuzz;

namespace {

/// Counts batches/rows without retaining them — a stand-in for a network
/// response stream.
class CountingSink : public RowSink {
 public:
  Status OnBatch(const std::vector<FdResultTuple>& batch) override {
    ++batches_;
    rows_ += batch.size();
    return Status::OK();
  }
  size_t batches() const { return batches_; }
  size_t rows() const { return rows_; }

 private:
  size_t batches_ = 0;
  size_t rows_ = 0;
};

/// One request's telemetry handle: the service-assigned monotonic id plus
/// (under --trace_out) the Tracer whose span tree becomes the request's
/// Chrome JSON file. Owned on the caller's stack, so the admission-storm
/// threads need no shared tracer bookkeeping.
struct TracedRequest {
  uint64_t id = 0;
  std::unique_ptr<Tracer> tracer;
};

/// Assigns the next request id and, when `trace_dir` is set, attaches a
/// fresh Tracer to `req`.
TracedRequest BeginRequest(std::atomic<uint64_t>* counter,
                           const std::string& trace_dir,
                           RequestOptions* req) {
  TracedRequest tr;
  tr.id = counter->fetch_add(1) + 1;
  req->request_id = tr.id;
  if (!trace_dir.empty()) {
    TraceOptions topts;
    topts.request_id = tr.id;
    tr.tracer = std::make_unique<Tracer>(topts);
    req->tracer = tr.tracer.get();
  }
  return tr;
}

/// Writes <trace_dir>/trace_<id>.json when the request was traced.
void FinishRequest(const std::string& trace_dir, const TracedRequest& tr) {
  if (tr.tracer == nullptr) return;
  const std::string path =
      trace_dir + "/trace_" + std::to_string(tr.id) + ".json";
  const std::string json = tr.tracer->ToChromeJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}

/// --replica=<dir>: the read-only side of the crash-consistent catalog.
/// Opens the latest committed generation, proves mutations are fenced off,
/// then alternates queries with RefreshReplica() polls, printing every
/// generation transition it observes.
int RunReplica(const std::string& dir, const Flags& flags) {
  const int polls = flags.GetInt("replica_polls", 3);
  const int poll_ms = flags.GetInt("replica_poll_ms", 200);

  auto replica = LakeEngine::OpenReplica(
      dir, EngineOptions().SetModel(ModelKind::kMistral).SetNumThreads(2));
  if (!replica.ok()) {
    std::fprintf(stderr, "replica open of '%s' failed: %s\n", dir.c_str(),
                 replica.status().ToString().c_str());
    return 1;
  }
  uint64_t generation = (*replica)->catalog_generation();
  std::printf("Replica '%s': opened at generation %llu with %zu tables\n",
              dir.c_str(), static_cast<unsigned long long>(generation),
              (*replica)->NumTables());

  // Read-only fencing: any mutation is a typed kFailedPrecondition, and
  // the replica stays fully serviceable afterwards.
  Status denied = (*replica)->SaveCatalog(dir).status();
  std::printf("  mutation fenced off: %s\n", denied.ToString().c_str());

  RequestOptions req;
  req.holistic_alignment = false;
  for (int poll = 0; poll <= polls; ++poll) {
    if (poll > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
      auto refreshed = (*replica)->RefreshReplica();
      if (!refreshed.ok()) {
        std::fprintf(stderr, "refresh failed: %s\n",
                     refreshed.status().ToString().c_str());
        return 1;
      }
      if (refreshed->generation != generation) {
        std::printf(
            "  refresh: generation %llu -> %llu (%zu loaded, %zu replaced, "
            "%zu dropped, %zu kept)\n",
            static_cast<unsigned long long>(generation),
            static_cast<unsigned long long>(refreshed->generation),
            refreshed->tables_loaded, refreshed->tables_replaced,
            refreshed->tables_dropped, refreshed->tables_kept);
        generation = refreshed->generation;
      } else {
        std::printf("  refresh: generation %llu unchanged\n",
                    static_cast<unsigned long long>(generation));
      }
    }
    std::vector<std::string> names = (*replica)->TableNames();
    std::sort(names.begin(), names.end());
    if (names.empty()) continue;
    auto top = (*replica)->DiscoverUnionable(names.front(), 3);
    auto integrated = (*replica)->Integrate(names, req);
    if (!top.ok() || !integrated.ok()) {
      std::fprintf(stderr, "replica query failed: %s\n",
                   (top.ok() ? integrated.status() : top.status())
                       .ToString()
                       .c_str());
      return 1;
    }
    std::printf(
        "  poll %d @ generation %llu: %zu tables, %zu unionable with '%s', "
        "integrate -> %zu rows\n",
        poll, static_cast<unsigned long long>(generation), names.size(),
        top->size(), names.front().c_str(), integrated->integrated.NumRows());
  }
  const CatalogStats stats = (*replica)->catalog_stats();
  std::printf("Replica stats: %llu opens, %llu refreshes, final generation "
              "%llu\n",
              static_cast<unsigned long long>(stats.opens),
              static_cast<unsigned long long>(stats.refreshes),
              static_cast<unsigned long long>(stats.generation));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  // 9. Replica mode replaces the writer walkthrough entirely.
  const std::string replica_dir = flags.GetString("replica", "");
  if (!replica_dir.empty()) return RunReplica(replica_dir, flags);
  ImdbOptions gen;
  gen.target_tuples = static_cast<size_t>(flags.GetInt("tuples", 3000));
  const int calls = flags.GetInt("calls", 3);
  const size_t threads = static_cast<size_t>(flags.GetInt("threads", 2));
  const int deadline_ms = flags.GetInt("deadline_ms", 0);
  const int budget_nodes = flags.GetInt("budget_nodes", 0);
  const size_t max_concurrent =
      static_cast<size_t>(flags.GetInt("max_concurrent", 0));

  // 10. Telemetry knobs: per-request trace files, the slow-request log
  //     threshold, and the metrics dump destination.
  const std::string trace_dir = flags.GetString("trace_out", "");
  const double slow_ms = flags.GetDouble("slow_ms", 0.0);
  const std::string metrics_out = flags.GetString("metrics_out", "");
  if (!trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(trace_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create --trace_out dir %s: %s\n",
                   trace_dir.c_str(), ec.message().c_str());
      return 1;
    }
  }
  std::atomic<uint64_t> request_counter{0};

  // 1. The session: constructed once, reused for every request below.
  //    --max_concurrent bounds in-flight integrate requests (one queued
  //    slot; further arrivals are rejected with kResourceExhausted).
  auto engine = LakeEngine::Create(EngineOptions()
                                       .SetModel(ModelKind::kMistral)
                                       .SetNumThreads(threads)
                                       .SetMaxConcurrentRequests(max_concurrent)
                                       .SetMaxQueuedRequests(
                                           max_concurrent > 0 ? 1 : 0)
                                       .SetSlowRequestMs(slow_ms));
  if (!engine.ok()) {
    std::fprintf(stderr, "engine setup failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }

  // 8. Warm start: open the durable catalog first. A failed open (first
  //    run, corruption, version skew) is a typed error and a cold start,
  //    never a crash; the re-registration below rebuilds what is missing.
  const std::string catalog_dir = flags.GetString("catalog", "");
  bool warm_start = false;
  if (!catalog_dir.empty()) {
    auto opened = (*engine)->OpenCatalog(catalog_dir);
    if (opened.ok()) {
      warm_start = opened->tables_loaded > 0;
      std::printf(
          "Catalog '%s': loaded %zu tables / %zu dict values, %.2f MB "
          "mapped, %zu columns re-sketched, %.1f ms\n",
          catalog_dir.c_str(), opened->tables_loaded, opened->values_loaded,
          static_cast<double>(opened->mapped_bytes) / (1 << 20),
          opened->columns_resketched, opened->seconds * 1e3);
    } else {
      std::printf("Catalog '%s': cold start (%s)\n", catalog_dir.c_str(),
                  opened.status().ToString().c_str());
    }
  }

  // 2. Register the lake. On a warm start the catalog already registered
  //    these names; kAlreadyExists simply means the loaded table stands.
  ImdbBenchmark bench = GenerateImdb(gen);
  std::vector<std::string> names;
  for (const auto& t : bench.tables) {
    Status s = (*engine)->RegisterTable(t.name(), t);
    if (!s.ok() &&
        !(warm_start && s.code() == ErrorCode::kAlreadyExists)) {
      std::fprintf(stderr, "register failed: %s\n", s.ToString().c_str());
      return 1;
    }
    names.push_back(t.name());
  }
  std::printf("Session over %zu tables (%zu input tuples), %zu threads\n",
              (*engine)->NumTables(), bench.total_tuples, threads);

  // 3. Same request, several times: the shared cache turns repeat
  //    embeddings into hits and shrinks match time.
  RequestOptions req;
  req.holistic_alignment = false;  // IMDB headers are trustworthy
  for (int call = 1; call <= calls; ++call) {
    RequestOptions call_req = req;
    TracedRequest tr = BeginRequest(&request_counter, trace_dir, &call_req);
    auto result = (*engine)->Integrate(names, call_req);
    FinishRequest(trace_dir, tr);
    if (!result.ok()) {
      std::fprintf(stderr, "req=%llu call %d failed: %s\n",
                   static_cast<unsigned long long>(tr.id), call,
                   result.status().ToString().c_str());
      return 1;
    }
    const auto& stats = result->report.match_stats;
    const StageLedger& stages = result->report.stages;
    std::printf(
        "  req=%llu call %d: %zu rows, match %.1f ms, FD %.1f ms "
        "(cache: %zu hits / %zu misses this call)\n",
        static_cast<unsigned long long>(tr.id), call,
        result->integrated.NumRows(), stages.seconds(Stage::kMatch) * 1e3,
        stages.seconds(Stage::kFd) * 1e3, stats.embedding_cache_hits,
        stats.embedding_cache_misses);
  }

  // 4. Streaming: same pipeline, constant-memory output path.
  CountingSink sink;
  RequestOptions stream_req = req;
  stream_req.batch_rows = 512;
  TracedRequest stream_tr =
      BeginRequest(&request_counter, trace_dir, &stream_req);
  auto streamed = (*engine)->IntegrateToSink(names, &sink, stream_req);
  FinishRequest(trace_dir, stream_tr);
  if (!streamed.ok()) {
    std::fprintf(stderr, "req=%llu streaming failed: %s\n",
                 static_cast<unsigned long long>(stream_tr.id),
                 streamed.status().ToString().c_str());
    return 1;
  }
  std::printf("  req=%llu streamed %zu rows in %zu batches of <=%zu\n",
              static_cast<unsigned long long>(stream_tr.id), sink.rows(),
              sink.batches(), stream_req.batch_rows);

  // 5. Cancellation: fire the token the moment the FD stage begins; the
  //    request returns kCancelled from the next checkpoint instead of
  //    finishing.
  RequestOptions cancel_req = req;
  cancel_req.cancel = CancelToken::Create();
  cancel_req.progress = [&cancel_req](const ProgressEvent& e) {
    if (e.stage == Stage::kFdEnumerate && e.done == 0) {
      cancel_req.cancel.Cancel();
    }
  };
  TracedRequest cancel_tr =
      BeginRequest(&request_counter, trace_dir, &cancel_req);
  auto cancelled = (*engine)->Integrate(names, cancel_req);
  FinishRequest(trace_dir, cancel_tr);
  if (cancelled.code() == ErrorCode::kCancelled) {
    std::printf("  req=%llu cancelled request surfaced as expected: %s\n",
                static_cast<unsigned long long>(cancel_tr.id),
                cancelled.status().ToString().c_str());
  } else {
    std::fprintf(stderr,
                 "expected kCancelled, got %s\n",
                 cancelled.ok()
                     ? "a successful result"
                     : cancelled.status().ToString().c_str());
    return 1;
  }

  // 6. Discovery: which registered tables union with this one? The index
  //    was built incrementally at registration; queries touch sketches
  //    only.
  const size_t discover_k =
      static_cast<size_t>(flags.GetInt("discover_k", 3));
  // Discovery queries take a bare RequestContext; the tracer rides on it.
  RequestOptions discover_opts;
  TracedRequest discover_tr =
      BeginRequest(&request_counter, trace_dir, &discover_opts);
  RequestContext discover_ctx;
  discover_ctx.tracer = discover_opts.tracer;
  auto unionable =
      (*engine)->DiscoverUnionable(names.front(), discover_k, discover_ctx);
  FinishRequest(trace_dir, discover_tr);
  if (!unionable.ok()) {
    std::fprintf(stderr, "req=%llu discovery failed: %s\n",
                 static_cast<unsigned long long>(discover_tr.id),
                 unionable.status().ToString().c_str());
    return 1;
  }
  std::printf("  req=%llu top-%zu unionable with '%s':\n",
              static_cast<unsigned long long>(discover_tr.id), discover_k,
              names.front().c_str());
  for (const auto& c : *unionable) {
    std::printf("    %-20s score %.3f (overlap %.3f, schema %.3f, %zu cols)\n",
                c.name.c_str(), c.score, c.overlap, c.compat,
                c.matched_columns);
  }

  // Optional: discover partners for an external CSV and integrate the
  // discovered set in one call.
  const std::string discover_csv = flags.GetString("discover", "");
  if (!discover_csv.empty()) {
    // A warm start may have restored a stale "query" from the last run's
    // checkpoint; drop it so this run's CSV is what gets discovered.
    if (warm_start) (*engine)->Unregister("query");
    Status reg = (*engine)->RegisterCsv("query", discover_csv);
    if (!reg.ok()) {
      std::fprintf(stderr, "discover: register failed: %s\n",
                   reg.ToString().c_str());
      return 1;
    }
    CountingSink discover_sink;
    std::vector<DiscoveryCandidate> discovered;
    RequestOptions dreq = req;
    TracedRequest dtr = BeginRequest(&request_counter, trace_dir, &dreq);
    auto dreport = (*engine)->DiscoverAndIntegrate(
        "query", discover_k, &discover_sink, dreq, &discovered);
    FinishRequest(trace_dir, dtr);
    if (!dreport.ok()) {
      std::fprintf(stderr, "req=%llu discover+integrate failed: %s\n",
                   static_cast<unsigned long long>(dtr.id),
                   dreport.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "  req=%llu discover '%s' k=%zu: %zu candidates, integrated %zu rows "
        "in %zu batches\n",
        static_cast<unsigned long long>(dtr.id), discover_csv.c_str(),
        discover_k, discovered.size(), discover_sink.rows(),
        discover_sink.batches());
  }

  // 7. Lifecycle hardening. A deadline and/or FD node budget under the
  //    kTruncate policy degrades gracefully: the request stays ok() and the
  //    truncation report says what was cut.
  size_t truncated_requests = 0;
  if (deadline_ms > 0 || budget_nodes > 0) {
    RequestOptions bounded = req;
    bounded.budget_policy = BudgetPolicy::kTruncate;
    if (deadline_ms > 0) {
      bounded.deadline = Deadline::AfterMillis(deadline_ms);
    }
    if (budget_nodes > 0) {
      bounded.budget.max_fd_nodes = static_cast<size_t>(budget_nodes);
    }
    TracedRequest btr = BeginRequest(&request_counter, trace_dir, &bounded);
    auto bounded_result = (*engine)->Integrate(names, bounded);
    FinishRequest(trace_dir, btr);
    if (!bounded_result.ok()) {
      // Under kTruncate only kCancelled (not used here) or a genuine error
      // escapes; report and keep going — the engine must stay serviceable.
      std::printf("  req=%llu bounded request failed: %s\n",
                  static_cast<unsigned long long>(btr.id),
                  bounded_result.status().ToString().c_str());
    } else {
      const Truncation& cut = bounded_result->report.truncation;
      if (cut.truncated) ++truncated_requests;
      const std::string detail =
          cut.truncated
              ? StrFormat("TRUNCATED (%s; %zu components kept, %zu skipped)",
                          cut.reason.c_str(), cut.components_completed,
                          cut.components_skipped)
              : "complete";
      std::printf(
          "  req=%llu bounded request (deadline %d ms, budget %d nodes): "
          "%zu rows, %s\n",
          static_cast<unsigned long long>(btr.id), deadline_ms, budget_nodes,
          bounded_result->integrated.NumRows(), detail.c_str());
    }
  }

  // Overload the admission gate: more concurrent requests than slots +
  // queue. The surplus must be rejected fast, and the engine must keep
  // serving afterwards.
  size_t rejected_requests = 0;
  if (max_concurrent > 0) {
    const size_t storm = 2 * max_concurrent + 2;
    std::atomic<size_t> ok_count{0}, rejected{0}, other{0};
    std::vector<std::thread> workers;
    workers.reserve(storm);
    const uint64_t storm_first_id = request_counter.load() + 1;
    for (size_t i = 0; i < storm; ++i) {
      workers.emplace_back([&] {
        RequestOptions storm_req = req;
        TracedRequest storm_tr =
            BeginRequest(&request_counter, trace_dir, &storm_req);
        auto r = (*engine)->Integrate(names, storm_req);
        FinishRequest(trace_dir, storm_tr);
        if (r.ok()) {
          ok_count.fetch_add(1);
        } else if (r.code() == ErrorCode::kResourceExhausted) {
          rejected.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
      });
    }
    for (auto& w : workers) w.join();
    rejected_requests = rejected.load();
    const AdmissionStats stats = (*engine)->admission_stats();
    std::printf(
        "  req=%llu..%llu admission storm of %zu (max %zu in flight, "
        "1 queued): %zu ok, %zu rejected, %zu other; session counters "
        "admitted=%llu queued=%llu rejected=%llu\n",
        static_cast<unsigned long long>(storm_first_id),
        static_cast<unsigned long long>(request_counter.load()), storm,
        max_concurrent, ok_count.load(), rejected.load(), other.load(),
        static_cast<unsigned long long>(stats.admitted),
        static_cast<unsigned long long>(stats.queued),
        static_cast<unsigned long long>(stats.rejected));
    if (other.load() != 0) {
      std::fprintf(stderr, "unexpected non-admission failure under storm\n");
      return 1;
    }
  }

  if (deadline_ms > 0 || budget_nodes > 0 || max_concurrent > 0) {
    std::printf("  lifecycle counters: truncated=%zu rejected=%zu\n",
                truncated_requests, rejected_requests);
  }

  // 8. Checkpoint: persist the session's lake for the next process. After
  //    a warm start with no changes this is a cheap incremental save that
  //    reuses every table's on-disk extents.
  if (!catalog_dir.empty()) {
    auto saved = (*engine)->SaveCatalog(catalog_dir);
    if (!saved.ok()) {
      std::fprintf(stderr, "SaveCatalog failed: %s\n",
                   saved.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "Catalog '%s': saved %s (%zu tables written, %zu reused, %zu values "
        "appended, %.2f MB, %.1f ms)\n",
        catalog_dir.c_str(), saved->incremental ? "incrementally" : "in full",
        saved->tables_written, saved->tables_reused, saved->values_appended,
        static_cast<double>(saved->bytes_written) / (1 << 20),
        saved->seconds * 1e3);
  }

  // 10. Metrics scrape: the same snapshot LakeEngine::MetricsSnapshot()
  //     returns, rendered in Prometheus text exposition format.
  if (!metrics_out.empty()) {
    const std::string text = RenderMetricsText((*engine)->MetricsSnapshot());
    if (metrics_out == "-") {
      std::fwrite(text.data(), 1, text.size(), stdout);
    } else {
      std::FILE* f = std::fopen(metrics_out.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write --metrics_out %s\n",
                     metrics_out.c_str());
        return 1;
      }
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
      std::printf("Metrics written to %s\n", metrics_out.c_str());
    }
  }
  return 0;
}
