#include "core/engine.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "assignment/parallel_cost.h"
#include "match/schema_matcher.h"
#include "util/rss.h"
#include "util/stopwatch.h"
#include "util/str.h"
#include "util/thread_pool.h"

namespace lakefuzz {
namespace {

/// Ceiling on SetNumThreads — a typo must not try to spawn 2^62 workers.
constexpr size_t kMaxEngineThreads = 4096;

/// Seconds → histogram nanoseconds (clamped at zero).
uint64_t SecondsToNs(double seconds) {
  return seconds <= 0.0 ? 0 : static_cast<uint64_t>(seconds * 1e9);
}

/// Every mutating entry point on a replica fails the same way.
Status ReplicaForbidden(const char* op) {
  return Status::FailedPrecondition(StrFormat(
      "%s is not available on a read-only replica engine", op));
}

/// The sink behind Integrate: builds the integrated table batch by batch.
class TableSink : public RowSink {
 public:
  TableSink(std::string name, bool include_provenance)
      : name_(std::move(name)), include_provenance_(include_provenance) {}

  Status Begin(const std::vector<std::string>& universal_names) override {
    table_ = FdResultsToTable({}, universal_names, name_, include_provenance_);
    return Status::OK();
  }

  Status OnBatch(const std::vector<FdResultTuple>& batch) override {
    AppendFdResults(batch, include_provenance_, &table_);
    return Status::OK();
  }

  Table Take() { return std::move(table_); }

 private:
  std::string name_;
  bool include_provenance_;
  Table table_;
};

}  // namespace

Status EngineOptions::Validate() const {
  if (num_threads > kMaxEngineThreads) {
    return Status::InvalidArgument(
        StrFormat("num_threads=%zu exceeds the engine ceiling of %zu",
                  num_threads, kMaxEngineThreads));
  }
  if (catalog_retain_generations == 0) {
    return Status::InvalidArgument(
        "catalog_retain_generations must be at least 1 (the current "
        "generation always survives)");
  }
  LAKEFUZZ_RETURN_IF_ERROR(discovery.Validate());
  return Status::OK();
}

LakeEngine::~LakeEngine() {
  // Release the replica's retention claim; a crashed replica leaves the pin
  // behind and the writer's GC sweeps it once the pid is gone.
  if (!replica_pin_.empty()) std::remove(replica_pin_.c_str());
}

LakeEngine::LakeEngine(EngineOptions options,
                       std::shared_ptr<const EmbeddingCache> cache,
                       std::unique_ptr<ThreadPool> pool)
    : options_(std::move(options)),
      cache_(std::move(cache)),
      pool_(std::move(pool)),
      session_dict_(std::make_unique<SessionDict>()),
      discovery_(std::make_unique<DiscoveryIndex>(
          options_.discovery, &session_dict_->dict(), pool_.get())) {
  // Resolve the metric handles once; increments then never touch the
  // registry lock. A shared external registry whose names are already
  // taken by a different metric kind falls back to a private registry —
  // an engine must never run without its counters.
  auto wire = [](MetricsRegistry* registry, EngineMetrics* em) {
    em->requests_total = registry->GetCounter(
        "lakefuzz_requests_total", "requests served (all request forms)");
    em->requests_failed = registry->GetCounter(
        "lakefuzz_requests_failed_total", "requests that returned an error");
    em->requests_truncated = registry->GetCounter(
        "lakefuzz_requests_truncated_total",
        "requests degraded to a partial result (BudgetPolicy::kTruncate)");
    em->fd_search_nodes = registry->GetCounter(
        "lakefuzz_fd_search_nodes_total", "FD enumerator search nodes");
    em->fd_result_tuples = registry->GetCounter(
        "lakefuzz_fd_result_tuples_total",
        "post-subsumption result tuples produced");
    em->fd_intra_tasks = registry->GetCounter(
        "lakefuzz_fd_intra_tasks_total",
        "root-branch ranges run for split FD components");
    em->values_rewritten = registry->GetCounter(
        "lakefuzz_values_rewritten_total",
        "cell values rewritten to fuzzy-group representatives");
    em->discovery_queries = registry->GetCounter(
        "lakefuzz_discovery_queries_total", "DiscoverUnionable calls");
    em->request_ns = registry->GetHistogram(
        "lakefuzz_request_latency_ns", "end-to-end request wall time");
    bool stages_ok = true;
    for (size_t s = 0; s < kNumStages; ++s) {
      const std::string name(StageName(static_cast<Stage>(s)));
      em->stage_ns[s] = registry->GetHistogram(
          "lakefuzz_stage_" + name + "_latency_ns",
          name + " stage wall time (StageLedger)");
      stages_ok = stages_ok && em->stage_ns[s] != nullptr;
    }
    return em->requests_total != nullptr && em->requests_failed != nullptr &&
           em->requests_truncated != nullptr &&
           em->fd_search_nodes != nullptr &&
           em->fd_result_tuples != nullptr &&
           em->fd_intra_tasks != nullptr &&
           em->values_rewritten != nullptr &&
           em->discovery_queries != nullptr && em->request_ns != nullptr &&
           stages_ok;
  };
  metrics_ = options_.metrics;
  if (metrics_ == nullptr || !wire(metrics_, &em_)) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
    wire(metrics_, &em_);
  }
}

Result<std::unique_ptr<LakeEngine>> LakeEngine::Create(
    EngineOptions options) {
  LAKEFUZZ_RETURN_IF_ERROR(options.Validate());
  auto cache = std::make_shared<const EmbeddingCache>(MakeModel(options.model));
  // num_threads == 1 keeps the engine poolless: requests run serially and a
  // one-shot throwaway engine costs no thread spawns.
  std::unique_ptr<ThreadPool> pool;
  const size_t threads = ResolveNumThreads(options.num_threads);
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  return std::unique_ptr<LakeEngine>(
      new LakeEngine(std::move(options), std::move(cache), std::move(pool)));
}

Status LakeEngine::RegisterTable(std::string name,
                                 std::shared_ptr<const Table> table) {
  if (table == nullptr) {
    return Status::InvalidArgument(
        StrFormat("cannot register null table '%s'", name.c_str()));
  }
  return RegisterTable(std::move(name), *table);
}

Status LakeEngine::RegisterTable(std::string name, const Table& table) {
  if (replica_) return ReplicaForbidden("RegisterTable");
  // A catalog stores a table column by column, so rows without columns
  // could not be written back (an empty CSV is 0 x 0 and stays legal).
  if (table.NumColumns() == 0 && table.NumRows() != 0) {
    return Status::InvalidArgument(StrFormat(
        "cannot register table '%s': it has rows but no columns",
        name.c_str()));
  }
  // Refuse before encoding, so a rejected registration interns nothing.
  LAKEFUZZ_RETURN_IF_ERROR(registry_.CheckName(name));
  // The table's one record, named by the registry: encoded once,
  // column-parallel on the session pool; every later consumer reads its
  // codes, and nothing keeps the table.
  std::shared_ptr<const EncodedTable> record =
      session_dict_->Encode(table, name, pool_.get());
  uint64_t version = 0;
  LAKEFUZZ_RETURN_IF_ERROR(registry_.Register(name, record, &version));
  // Incremental discovery build: sketch the new record (column-parallel on
  // the session pool). `version` was captured under the registry lock, so
  // the index attributes exactly this mutation (and refuses to fast-forward
  // past concurrent ones it has not seen). With build_at_register off, the
  // index simply falls behind the registry version and the first discovery
  // call bulk-syncs it.
  if (options_.discovery.build_at_register) {
    discovery_->AddTable(name, std::move(record), version);
  }
  return Status::OK();
}

Status LakeEngine::RegisterCsv(std::string name, const std::string& path,
                               const CsvOptions& csv) {
  if (replica_) return ReplicaForbidden("RegisterCsv");
  Result<Table> table = ReadCsvFile(path, csv);
  if (!table.ok()) return table.status();
  return RegisterTable(std::move(name), *table);
}

Status LakeEngine::Unregister(const std::string& name) {
  if (replica_) return ReplicaForbidden("Unregister");
  uint64_t version = 0;
  if (registry_.Take(name, &version) == nullptr) {
    return Status::NotFound(
        StrFormat("table '%s' is not registered", name.c_str()));
  }
  // `version` is exactly this removal's registry version; a discovery
  // query racing in between sees a version mismatch and re-syncs.
  discovery_->RemoveTable(name, version);
  return Status::OK();
}

Result<std::unique_ptr<LakeEngine>> LakeEngine::OpenReplica(
    const std::string& dir, EngineOptions options) {
  LAKEFUZZ_ASSIGN_OR_RETURN(std::unique_ptr<LakeEngine> engine,
                            Create(std::move(options)));
  engine->replica_ = true;
  std::lock_guard<std::mutex> lock(engine->catalog_mu_);
  CatalogOpenRequest request;
  request.mode = CatalogOpenMode::kOpen;
  request.pin_path = &engine->replica_pin_;
  Result<CatalogOpenReport> report = OpenCatalogInto(
      dir, &engine->registry_, engine->session_dict_.get(),
      engine->discovery_.get(), engine->options_.discovery,
      &engine->catalog_state_, request);
  ++engine->catalog_stats_.opens;
  if (!report.ok()) {
    ++engine->catalog_stats_.open_failures;
    return report.status();
  }
  engine->AccumulateOpen(*report);
  return engine;
}

Result<CatalogOpenReport> LakeEngine::OpenCatalog(const std::string& dir,
                                                  Tracer* tracer) {
  if (replica_) return ReplicaForbidden("OpenCatalog");
  ScopedSpan span(tracer, "catalog_open");
  std::lock_guard<std::mutex> lock(catalog_mu_);
  Result<CatalogOpenReport> report =
      OpenCatalogInto(dir, &registry_, session_dict_.get(), discovery_.get(),
                      options_.discovery, &catalog_state_);
  ++catalog_stats_.opens;
  if (!report.ok()) {
    ++catalog_stats_.open_failures;
    span.AddAttr("error", std::string(ErrorCodeToString(report.code())));
    return report;
  }
  span.AddAttr("tables_loaded", static_cast<int64_t>(report->tables_loaded));
  span.AddAttr("values_loaded", static_cast<int64_t>(report->values_loaded));
  span.AddAttr("generation", static_cast<int64_t>(report->generation));
  AccumulateOpen(*report);
  return report;
}

Result<CatalogOpenReport> LakeEngine::RefreshReplica() {
  if (!replica_) {
    return Status::FailedPrecondition(
        "RefreshReplica requires a replica engine (use OpenReplica)");
  }
  std::lock_guard<std::mutex> lock(catalog_mu_);
  // Fast path: CURRENT has not advanced — one locked read, no manifest
  // parse, no staging. The existing pin stays.
  Result<uint64_t> current = CatalogCurrentGeneration(catalog_state_.dir);
  if (current.ok() && *current == catalog_state_.generation) {
    CatalogOpenReport report;
    report.generation = catalog_state_.generation;
    report.tables_kept = catalog_state_.tables_by_name.size();
    return report;
  }
  const uint64_t prev_generation = catalog_state_.generation;
  std::string new_pin;
  CatalogOpenRequest request;
  request.mode = CatalogOpenMode::kRefresh;
  request.pin_path = &new_pin;
  Result<CatalogOpenReport> report = OpenCatalogInto(
      catalog_state_.dir, &registry_, session_dict_.get(), discovery_.get(),
      options_.discovery, &catalog_state_, request);
  ++catalog_stats_.opens;
  if (!report.ok()) {
    // The old pin still stands and the old generation still serves — a
    // failed refresh degrades to staleness, never to a torn lake view.
    ++catalog_stats_.open_failures;
    return report;
  }
  // Hand-over-hand pin move: the new generation was claimed (under the
  // shared lock, inside OpenCatalogInto) before the old claim is dropped,
  // so the writer's GC never sees this replica unpinned.
  if (!replica_pin_.empty() && replica_pin_ != new_pin) {
    std::remove(replica_pin_.c_str());
  }
  replica_pin_ = std::move(new_pin);
  if (report->generation != prev_generation) ++catalog_stats_.refreshes;
  AccumulateOpen(*report);
  return report;
}

uint64_t LakeEngine::catalog_generation() const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  return catalog_state_.generation;
}

void LakeEngine::AccumulateOpen(const CatalogOpenReport& report) const {
  catalog_stats_.tables_loaded += report.tables_loaded;
  catalog_stats_.values_loaded += report.values_loaded;
  catalog_stats_.columns_resketched += report.columns_resketched;
  catalog_stats_.mmap_bytes = report.mapped_bytes;
  catalog_stats_.generation = report.generation;
}

Result<CatalogSaveReport> LakeEngine::SaveCatalog(const std::string& dir,
                                                  Tracer* tracer) {
  if (replica_) return ReplicaForbidden("SaveCatalog");
  ScopedSpan span(tracer, "catalog_save");
  // Sync first so the discovery index holds a sketch for every registered
  // table — the save then persists them as-is instead of re-sketching.
  LAKEFUZZ_RETURN_IF_ERROR(EnsureDiscoverySynced(RequestContext()));
  std::lock_guard<std::mutex> lock(catalog_mu_);
  Result<CatalogSaveReport> report = SaveCatalogFrom(
      dir, &registry_, session_dict_.get(), discovery_.get(),
      options_.discovery, &catalog_state_,
      options_.catalog_retain_generations);
  if (!report.ok()) return report;
  ++catalog_stats_.saves;
  catalog_stats_.tables_written += report->tables_written;
  catalog_stats_.tables_reused += report->tables_reused;
  catalog_stats_.values_appended += report->values_appended;
  catalog_stats_.columns_resketched += report->columns_resketched;
  catalog_stats_.bytes_written += report->bytes_written;
  catalog_stats_.generation = report->generation;
  catalog_stats_.generations_removed += report->generations_removed;
  span.AddAttr("tables_written",
               static_cast<int64_t>(report->tables_written));
  span.AddAttr("bytes_written", static_cast<int64_t>(report->bytes_written));
  span.AddAttr("generation", static_cast<int64_t>(report->generation));
  return report;
}

CatalogStats LakeEngine::catalog_stats() const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  return catalog_stats_;
}

Status LakeEngine::EnsureDiscoverySynced(const RequestContext& ctx) const {
  // Cheap fast path: versions match means the index reflects exactly the
  // current name → snapshot mapping (TableRegistry::version() invariant).
  if (discovery_->version() == registry_.version()) return Status::OK();
  uint64_t version = 0;
  auto snapshot = registry_.Snapshot(&version);
  return discovery_->Resync(snapshot, version, ctx);
}

Result<std::vector<DiscoveryCandidate>> LakeEngine::DiscoverUnionable(
    const std::string& name, size_t k, const RequestContext& ctx,
    Truncation* truncation) const {
  return Discover(k, ctx, truncation, [&](const RequestContext& query_ctx) {
    return discovery_->TopKByName(name, k, query_ctx, truncation);
  });
}

Result<std::vector<DiscoveryCandidate>> LakeEngine::DiscoverUnionable(
    const Table& query, size_t k, const RequestContext& ctx,
    Truncation* truncation) const {
  return Discover(k, ctx, truncation, [&](const RequestContext& query_ctx) {
    // SketchQuery hashes the cells directly — an ad-hoc query never grows
    // the session dictionary.
    return discovery_->TopK(discovery_->SketchQuery(query), k, query_ctx,
                            truncation);
  });
}

Result<std::vector<DiscoveryCandidate>> LakeEngine::Discover(
    size_t k, const RequestContext& ctx, Truncation* truncation,
    const RankFn& rank) const {
  if (k == 0) {
    return Status::InvalidArgument("discovery k must be positive");
  }
  em_.discovery_queries->Increment();
  StageScope discover(ctx, Stage::kDiscover);
  discover.AddAttr("k", static_cast<int64_t>(k));
  const RequestContext span_ctx = ctx.WithSpan(discover.span_id());
  // Truncation-aware pre-check: under kTruncate an already-expired
  // deadline still yields a best-so-far (possibly empty) ranking with
  // the cut recorded downstream, instead of a hard error.
  Status pre = ctx.CheckStop("discovery");
  if (!pre.ok() && !ctx.ShouldTruncate(pre.code())) return pre;
  Status synced = EnsureDiscoverySynced(span_ctx);
  if (!synced.ok()) {
    if (!ctx.ShouldTruncate(synced.code())) return synced;
    // Best-effort under kTruncate: search whatever the index already holds
    // (possibly a stale lake view) and record the cut.
    if (truncation != nullptr && !truncation->truncated) {
      truncation->truncated = true;
      truncation->stage = Stage::kDiscover;
      truncation->reason = synced.message();
    }
  }
  // Once degraded, the query itself is cleanup: cancel still aborts it, the
  // already-expired deadline does not re-fire.
  Result<std::vector<DiscoveryCandidate>> candidates =
      rank(synced.ok() ? span_ctx : span_ctx.CancelOnly());
  if (candidates.ok()) {
    discover.AddAttr("candidates", static_cast<int64_t>(candidates->size()));
    discover.End();
  }
  return candidates;
}

Result<FuzzyFdReport> LakeEngine::DiscoverAndIntegrate(
    const std::string& query_name, size_t k, RowSink* sink,
    const RequestOptions& request,
    std::vector<DiscoveryCandidate>* discovered) const {
  std::vector<std::string> names{query_name};
  return ServeRequest(
      "discover+integrate", names, request,
      [&](const RequestContext& ctx) -> Result<FuzzyFdReport> {
        Truncation discover_cut;
        LAKEFUZZ_ASSIGN_OR_RETURN(
            std::vector<DiscoveryCandidate> candidates,
            DiscoverUnionable(query_name, k, ctx, &discover_cut));
        // Query first, then candidates in rank order: the name list defines
        // TID numbering, so the discovered integration is reproducible from
        // the candidate list alone (and bit-identical to IntegrateToSink on
        // it).
        names.reserve(candidates.size() + 1);
        for (const DiscoveryCandidate& c : candidates) names.push_back(c.name);
        if (discovered != nullptr) *discovered = std::move(candidates);
        LAKEFUZZ_ASSIGN_OR_RETURN(FuzzyFdReport report,
                                  IntegrateToSinkImpl(names, sink, request,
                                                      ctx));
        if (discover_cut.truncated) {
          // Discovery was cut first; keep its stage/reason as the report's
          // primary cut and fold in whatever the pipeline added.
          discover_cut.Merge(report.truncation);
          report.truncation = discover_cut;
        }
        return report;
      });
}

uint64_t LakeEngine::schema_cache_hits() const {
  std::lock_guard<std::mutex> lock(schema_mu_);
  return schema_cache_hits_;
}

AdmissionStats LakeEngine::admission_stats() const {
  std::lock_guard<std::mutex> lock(admission_mu_);
  return admission_stats_;
}

Result<FuzzyFdReport> LakeEngine::ServeRequest(
    const char* mode, const std::vector<std::string>& names,
    const RequestOptions& request, const RequestBody& body) const {
  Stopwatch total_watch;
  const uint64_t request_id =
      request.request_id != 0
          ? request.request_id
          : next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  StageLedger stages;
  RequestContext ctx;
  ctx.cancel = request.cancel;
  ctx.deadline = request.deadline;
  ctx.budget = request.budget;
  ctx.policy = request.budget_policy;
  ctx.tracer = request.tracer;
  ctx.ledger = &stages;
  if (request.progress) ctx.progress = &request.progress;
  ScopedSpan root(ctx.tracer, "request");
  root.AddAttr("mode", std::string(mode));
  root.AddAttr("request_id", static_cast<int64_t>(request_id));
  ctx.trace_parent = root.id();
  auto finish = [&](Result<FuzzyFdReport> report) {
    root.End();
    RecordRequest(mode, request_id, names, report.status(),
                  report.ok() ? &*report : nullptr,
                  total_watch.ElapsedSeconds(), stages);
    return report;
  };
  Status admitted = Status::OK();
  {
    StageScope wait(ctx, Stage::kAdmissionWait);
    admitted = Admit(ctx);
  }
  if (!admitted.ok()) return finish(admitted);
  AdmissionSlot slot(this);
  return finish(body(ctx));
}

void LakeEngine::RecordRequest(const char* mode, uint64_t request_id,
                               const std::vector<std::string>& names,
                               const Status& status,
                               const FuzzyFdReport* report,
                               double total_seconds,
                               const StageLedger& stages) const {
  em_.requests_total->Increment();
  if (!status.ok()) em_.requests_failed->Increment();
  em_.request_ns->Observe(SecondsToNs(total_seconds));
  // Only stages that ran: a skipped stage (match under regular FD) must not
  // pull its percentiles toward zero.
  for (size_t s = 0; s < kNumStages; ++s) {
    const Stage stage = static_cast<Stage>(s);
    if (stages.runs(stage) > 0) em_.stage_ns[s]->Observe(stages.wall_ns(stage));
  }
  if (report != nullptr) {
    if (report->truncation.truncated) em_.requests_truncated->Increment();
    em_.fd_search_nodes->Add(report->fd_stats.search_nodes);
    em_.fd_result_tuples->Add(report->fd_stats.results);
    em_.fd_intra_tasks->Add(report->fd_stats.intra_tasks);
    em_.values_rewritten->Add(report->values_rewritten);
  }
  const double total_ms = total_seconds * 1e3;
  if (options_.slow_request_ms > 0.0 &&
      total_ms >= options_.slow_request_ms) {
    SlowLogInfo info;
    info.request_id = request_id;
    info.mode = mode;
    info.tables = names;
    info.total_ms = total_ms;
    info.threshold_ms = options_.slow_request_ms;
    info.error =
        status.ok() ? "ok" : std::string(ErrorCodeToString(status.code()));
    info.truncated = report != nullptr && report->truncation.truncated;
    const std::string line = SlowRequestLine(info, stages);
    if (options_.slow_log) {
      options_.slow_log(line);
    } else {
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  }
}

void LakeEngine::RefreshGauges() const {
  auto set = [&](const char* name, const char* help, uint64_t v) {
    Gauge* g = metrics_->GetGauge(name, help);
    if (g != nullptr) g->Set(static_cast<int64_t>(v));
  };
  const AdmissionStats adm = admission_stats();
  set("lakefuzz_admission_admitted_total", "requests past the gate",
      adm.admitted);
  set("lakefuzz_admission_rejected_total", "overload fast-rejections",
      adm.rejected);
  set("lakefuzz_admission_queued_total", "requests that waited for a slot",
      adm.queued);
  const CatalogStats cat = catalog_stats();
  set("lakefuzz_catalog_generation", "last committed/observed generation",
      cat.generation);
  set("lakefuzz_catalog_opens_total", "catalog opens attempted", cat.opens);
  set("lakefuzz_catalog_saves_total", "catalog checkpoints committed",
      cat.saves);
  set("lakefuzz_catalog_refreshes_total",
      "replica refreshes that loaded a new generation", cat.refreshes);
  set("lakefuzz_catalog_bytes_written_total", "catalog bytes written",
      cat.bytes_written);
  set("lakefuzz_dict_values_interned_total",
      "distinct values in the session dictionary",
      session_dict_->stats().values_interned);
  // Pool / RSS gauges read the same single sources the bench artifacts do
  // (PoolStats, util/rss.h) — /metrics and bench JSON can never drift
  // apart.
  if (pool_ != nullptr) {
    const PoolStats ps = pool_->stats();
    set("lakefuzz_pool_tasks_total", "pool tasks executed", ps.tasks);
    set("lakefuzz_pool_busy_ns_total", "summed task execution time",
        ps.busy_ns);
    set("lakefuzz_pool_wait_ns_total", "summed enqueue-to-dequeue latency",
        ps.queue_wait_ns);
  }
  set("lakefuzz_schema_cache_hits_total",
      "requests that reused a cached alignment", schema_cache_hits());
  set("lakefuzz_registered_tables", "tables in the registry", NumTables());
  set("lakefuzz_discovery_index_tables", "tables in the discovery index",
      discovery_->num_tables());
  set("lakefuzz_discovery_index_columns", "columns in the discovery index",
      discovery_->num_columns());
  set("lakefuzz_process_peak_rss_bytes",
      "process peak RSS (getrusage high-water mark)", PeakRssBytes());
}

lakefuzz::MetricsSnapshot LakeEngine::MetricsSnapshot() const {
  RefreshGauges();
  return metrics_->Snapshot();
}

Status LakeEngine::Admit(const RequestContext& ctx) const {
  const size_t max = options_.max_concurrent_requests;
  std::unique_lock<std::mutex> lock(admission_mu_);
  if (max != 0 && active_requests_ >= max) {
    if (waiting_requests_ >= options_.max_queued_requests) {
      ++admission_stats_.rejected;
      return Status::ResourceExhausted(StrFormat(
          "engine overloaded: %zu requests in flight and %zu queued "
          "(max_concurrent_requests=%zu, max_queued_requests=%zu)",
          active_requests_, waiting_requests_,
          options_.max_concurrent_requests, options_.max_queued_requests));
    }
    ++waiting_requests_;
    ++admission_stats_.queued;
    while (active_requests_ >= max) {
      // Bounded waits so a queued request still honors its own token and
      // deadline (a queue-wait stop has no partial result — it fails hard
      // regardless of BudgetPolicy).
      admission_cv_.wait_for(lock, std::chrono::milliseconds(5));
      Status stop = ctx.CheckStop("admission wait");
      if (!stop.ok()) {
        --waiting_requests_;
        return stop;
      }
    }
    --waiting_requests_;
  }
  ++admission_stats_.admitted;
  ++active_requests_;
  return Status::OK();
}

void LakeEngine::ReleaseAdmission() const {
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    --active_requests_;
  }
  admission_cv_.notify_one();
}

LakeEngine::AdmissionSlot::~AdmissionSlot() { engine_->ReleaseAdmission(); }

std::vector<std::string> LakeEngine::TableNames() const {
  return registry_.Names();
}

size_t LakeEngine::NumTables() const { return registry_.size(); }

Result<LakeEngine::PreparedRequest> LakeEngine::Prepare(
    const std::vector<std::string>& names, const RequestOptions& request,
    const RequestContext& ctx) const {
  if (names.empty()) {
    return Status::InvalidArgument("integration set is empty");
  }
  LAKEFUZZ_RETURN_IF_ERROR(ctx.CheckStop("request"));
  PreparedRequest prep;
  uint64_t registry_version = 0;
  LAKEFUZZ_ASSIGN_OR_RETURN(prep.tables,
                            registry_.GetMany(names, &registry_version));

  StageScope align(ctx, Stage::kAlign);
  // Alignment cache: keyed by (mode, ordered name list) and valid only at
  // the registry version the snapshot was resolved at — any Register /
  // Unregister bumps the version, so a cached alignment can never outlive
  // the tables it was computed from. Cached repeated Integrate calls skip
  // holistic re-alignment entirely (ROADMAP PR 3 follow-up).
  SchemaKey schema_key{request.holistic_alignment, names};
  bool cached = false;
  {
    std::lock_guard<std::mutex> lock(schema_mu_);
    auto it = schema_cache_.find(schema_key);
    if (it != schema_cache_.end() &&
        it->second.version == registry_version) {
      prep.aligned = it->second.aligned;
      ++schema_cache_hits_;
      cached = true;
    }
  }
  if (!cached) {
    Result<AlignedSchema> aligned = Status::Internal("unreachable");
    if (request.holistic_alignment) {
      aligned = HolisticSchemaMatcher(cache_).Align(prep.tables,
                                                    session_dict_->dict());
    } else {
      aligned = AlignByName(prep.tables);
    }
    if (!aligned.ok()) return aligned.status();
    prep.aligned = std::move(aligned).value();
    std::lock_guard<std::mutex> lock(schema_mu_);
    // Entries from older registry versions can never validate again (the
    // version only grows); sweep them on insert so a long-lived engine
    // with a churning registry stays bounded by its live name sets.
    for (auto it = schema_cache_.begin(); it != schema_cache_.end();) {
      if (it->second.version != registry_version) {
        it = schema_cache_.erase(it);
      } else {
        ++it;
      }
    }
    schema_cache_[std::move(schema_key)] =
        CachedSchema{registry_version, prep.aligned};
  }
  align.AddAttr("cached", cached ? int64_t{1} : int64_t{0});
  align.AddAttr("universal_columns",
                static_cast<int64_t>(prep.aligned.universal_names.size()));
  align.End();

  // Session resources override the per-request knobs they replace; the
  // remaining matcher/FD knobs pass through untouched.
  FuzzyFdOptions eff = request.fuzzy_fd;
  eff.matcher.shared_cache = cache_;
  eff.session_dict = session_dict_.get();
  eff.context = ctx;
  if (pool_ != nullptr) {
    eff.pool = pool_.get();
    eff.matcher.pool = pool_.get();
  }
  prep.effective = std::move(eff);
  return prep;
}

Result<PipelineResult> LakeEngine::Integrate(
    const std::vector<std::string>& names,
    const RequestOptions& request) const {
  TableSink sink(request.fuzzy ? "fuzzy_full_disjunction" : "full_disjunction",
                 request.include_provenance);
  PipelineResult result;
  LAKEFUZZ_ASSIGN_OR_RETURN(
      result.report,
      ServeRequest("integrate", names, request,
                   [&](const RequestContext& ctx) {
                     return IntegrateToSinkImpl(names, &sink, request, ctx,
                                                &result.aligned);
                   }));
  result.integrated = sink.Take();
  return result;
}

Result<FuzzyFdReport> LakeEngine::IntegrateToSink(
    const std::vector<std::string>& names, RowSink* sink,
    const RequestOptions& request) const {
  return ServeRequest("sink", names, request, [&](const RequestContext& ctx) {
    return IntegrateToSinkImpl(names, sink, request, ctx);
  });
}

Result<FuzzyFdReport> LakeEngine::IntegrateToSinkImpl(
    const std::vector<std::string>& names, RowSink* sink,
    const RequestOptions& request, const RequestContext& ctx,
    AlignedSchema* aligned) const {
  if (sink == nullptr) {
    return Status::InvalidArgument("IntegrateToSink requires a sink");
  }
  if (request.batch_rows == 0) {
    return Status::InvalidArgument("batch_rows must be positive");
  }
  LAKEFUZZ_ASSIGN_OR_RETURN(PreparedRequest prep,
                            Prepare(names, request, ctx));
  LAKEFUZZ_RETURN_IF_ERROR(sink->Begin(prep.aligned.universal_names));

  FuzzyFdReport report;
  FdBatchFn emit = [sink](std::vector<FdResultTuple>* batch) {
    return sink->OnBatch(*batch);
  };
  LAKEFUZZ_RETURN_IF_ERROR(
      FuzzyFullDisjunction(prep.effective)
          .RunToBatches(prep.tables, prep.aligned, request.fuzzy,
                        request.batch_rows, emit, &report)
          .status());
  report.stages = *ctx.ledger;
  LAKEFUZZ_RETURN_IF_ERROR(sink->End(report));
  if (aligned != nullptr) *aligned = std::move(prep.aligned);
  return report;
}

}  // namespace lakefuzz
