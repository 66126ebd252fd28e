// LakeEngine: the session-oriented public API of lakefuzz.
//
// The paper's operator is one-shot, but real workloads (Gen-T style table
// reclamation, query-time integration) issue *many* integrate calls over
// the same lake. A LakeEngine is constructed once from validated
// EngineOptions and owns the process-wide resources every call used to
// rebuild: one session EmbeddingCache over the embedding model (holistic
// alignment and value matching both read it, so each string is embedded
// once per session and is a hit for every later lookup), and one session
// ThreadPool. Tables register once: each is encoded into the session
// dictionary as a code record (fd/session_dict.h EncodedTable) held by a
// TableRegistry, and requests pin those records — nothing keeps the Table.
//
//   auto engine = LakeEngine::Create(
//       EngineOptions().SetModel(ModelKind::kMistral).SetNumThreads(8));
//   (*engine)->RegisterCsv("cities", "cities.csv");
//   (*engine)->RegisterTable("rates", std::move(rates_table));
//   auto result = (*engine)->Integrate({"cities", "rates"});
//
// Requests take per-call RequestOptions carrying matcher/FD knobs, a
// CancelToken (cooperative abort → ErrorCode::kCancelled), and a
// ProgressFn. Every request runs one path: IntegrateToSink streams result
// tuples to a RowSink in batches, and Integrate is IntegrateToSink into a
// sink that builds the integrated table. One engine serves concurrent
// Integrate calls; the registry, cache, and pool are all thread-safe.
#ifndef LAKEFUZZ_CORE_ENGINE_H_
#define LAKEFUZZ_CORE_ENGINE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "core/engine_registry.h"
#include "core/fuzzy_fd.h"
#include "discovery/discovery.h"
#include "embedding/embedding_cache.h"
#include "embedding/model_zoo.h"
#include "fd/session_dict.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "table/csv.h"
#include "util/request_context.h"
#include "util/result.h"

namespace lakefuzz {

class ThreadPool;

/// Engine construction knobs, builder-style:
///
///   EngineOptions().SetModel(ModelKind::kMistral).SetNumThreads(8)
///
/// Validate() is called by LakeEngine::Create; invalid options surface as
/// ErrorCode::kInvalidArgument before any resource is allocated.
struct EngineOptions {
  /// Embedding model behind the session embedding memo that alignment and
  /// value matching read. Built once per engine.
  ModelKind model = ModelKind::kMistral;
  /// Session worker threads: 1 = serial (no pool is created), 0 = hardware
  /// concurrency, N = exactly N. The pool is the engine's one parallelism
  /// switch: FD work items (components and root-branch ranges),
  /// subsumption, decode, and matcher fills all run on it. Results are
  /// identical at every setting.
  size_t num_threads = 1;
  /// Discovery-index knobs (signature size, LSH banding, score weights,
  /// eager vs bulk build — see discovery/discovery.h).
  DiscoveryOptions discovery;
  /// Admission control: at most this many integrate-class requests
  /// (Integrate / IntegrateToSink / DiscoverAndIntegrate) run at once;
  /// 0 = unlimited (the default — admission only counts). Overload beyond
  /// the wait queue rejects fast with ErrorCode::kResourceExhausted.
  size_t max_concurrent_requests = 0;
  /// Bounded wait queue in front of the concurrency gate: requests arriving
  /// while `max_concurrent_requests` are in flight wait here (still honoring
  /// their cancel token and deadline); once `max_queued_requests` are
  /// already waiting, further arrivals are rejected immediately.
  size_t max_queued_requests = 0;
  /// Durable-catalog retention: how many committed generations SaveCatalog
  /// keeps on disk. Older generations are garbage-collected after each
  /// commit unless a live reader has them pinned. Minimum 1 — the current
  /// generation always survives.
  size_t catalog_retain_generations = kCatalogDefaultRetainGenerations;
  /// External metrics registry (obs/metrics.h) shared across engines in
  /// one process; null (the default) gives the engine a private registry.
  /// Either way MetricsSnapshot() scrapes it plus the engine-level gauges.
  /// Not owned; must outlive the engine.
  MetricsRegistry* metrics = nullptr;
  /// Slow-request log threshold in milliseconds: any Integrate /
  /// IntegrateToSink / DiscoverAndIntegrate whose end-to-end wall time
  /// reaches it emits one structured line (see obs/trace.h
  /// SlowRequestLine) through `slow_log`. 0 (the default) disables the
  /// log. The per-stage breakdown comes from the request's stage ledger.
  double slow_request_ms = 0.0;
  /// Destination for slow-request lines; defaults to stderr when unset.
  /// Invoked on the request thread, after the request finished.
  std::function<void(const std::string&)> slow_log;

  EngineOptions& SetModel(ModelKind kind) {
    model = kind;
    return *this;
  }
  EngineOptions& SetNumThreads(size_t n) {
    num_threads = n;
    return *this;
  }
  EngineOptions& SetDiscovery(DiscoveryOptions options) {
    discovery = std::move(options);
    return *this;
  }
  EngineOptions& SetMaxConcurrentRequests(size_t n) {
    max_concurrent_requests = n;
    return *this;
  }
  EngineOptions& SetMaxQueuedRequests(size_t n) {
    max_queued_requests = n;
    return *this;
  }
  EngineOptions& SetCatalogRetainGenerations(size_t n) {
    catalog_retain_generations = n;
    return *this;
  }
  EngineOptions& SetMetrics(MetricsRegistry* registry) {
    metrics = registry;
    return *this;
  }
  EngineOptions& SetSlowRequestMs(double ms) {
    slow_request_ms = ms;
    return *this;
  }
  EngineOptions& SetSlowLog(std::function<void(const std::string&)> fn) {
    slow_log = std::move(fn);
    return *this;
  }

  /// Checks the option combination without allocating anything.
  Status Validate() const;
};

/// Per-request knobs. The engine fills in everything session-owned
/// (embedding memo, pool) on top of these.
struct RequestOptions {
  /// Align columns by content (holistic schema matching); when false,
  /// columns align by equal header names.
  bool holistic_alignment = true;
  /// Fuzzy matching on/off — off skips match and rewrite: the regular-FD
  /// baseline on the same executor.
  bool fuzzy = true;
  /// Add the "TIDs" provenance column to the output table.
  bool include_provenance = false;
  /// Matcher/FD knobs. The engine overwrites the session-owned fields:
  /// matcher.shared_cache (the session embedding memo, which puts the
  /// matcher in embedding mode, so matcher.model is ignored), session_dict,
  /// context, and — on a pooled engine — pool and matcher.pool (both the
  /// session pool). The remaining knobs pass through untouched.
  FuzzyFdOptions fuzzy_fd;
  /// Cooperative cancellation (CancelToken::Create(); fire from any
  /// thread). A cancelled request returns ErrorCode::kCancelled.
  CancelToken cancel;
  /// Request deadline (Deadline::AfterMillis(...)), polled at the same
  /// checkpoints as `cancel`. Expiry returns ErrorCode::kDeadlineExceeded —
  /// or, under BudgetPolicy::kTruncate, a partial result with
  /// FuzzyFdReport::truncation populated.
  Deadline deadline;
  /// Per-request resource ceilings (FD search nodes, result tuples, FD
  /// scratch bytes); zero fields are unlimited.
  ResourceBudget budget;
  /// What budget/deadline exhaustion does: kFail (default) surfaces the
  /// typed error, kTruncate degrades to the best partial result computed
  /// so far. Cancellation always fails regardless of policy.
  BudgetPolicy budget_policy = BudgetPolicy::kFail;
  /// Stage progress, invoked on the request thread (see ProgressEvent).
  ProgressFn progress;
  /// Decoded tuples per batch: per OnBatch call in sink mode (bounds peak
  /// memory), per decode window in Integrate.
  size_t batch_rows = 1024;
  /// Request tracing (obs/trace.h): when set, the engine opens a root
  /// "request" span and every stage hangs a timed child span off it —
  /// export with Tracer::ToChromeJson() / FlameSummary() afterward.
  /// Observation-only: results are byte-identical with or without a
  /// tracer. Not owned; use one Tracer per request (its spans are the
  /// request's trace tree).
  Tracer* tracer = nullptr;
  /// Caller-assigned id stamped on the root span and the slow-request log
  /// line; 0 (the default) makes the engine assign one from its own
  /// monotonic sequence.
  uint64_t request_id = 0;
};

/// Engine-lifetime admission counters (see EngineOptions::
/// max_concurrent_requests). admitted counts requests that got a slot
/// (including after queueing), queued counts those that had to wait first,
/// rejected counts fast-fail overload rejections.
struct AdmissionStats {
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t queued = 0;
};

/// Streaming consumer for IntegrateToSink. Methods are invoked on the
/// request thread, in order: Begin, then OnBatch zero or more times, then
/// End exactly once on success (not after an error/cancellation). Any
/// non-OK return aborts the request with that status.
class RowSink {
 public:
  virtual ~RowSink() = default;

  /// Announces the universal schema before the first batch.
  virtual Status Begin(const std::vector<std::string>& universal_names) {
    (void)universal_names;
    return Status::OK();
  }

  /// One window of result tuples in TID-list order. The vector is
  /// reused between calls — copy what outlives the call.
  virtual Status OnBatch(const std::vector<FdResultTuple>& batch) = 0;

  /// Final stage report after the last batch.
  virtual Status End(const FuzzyFdReport& report) {
    (void)report;
    return Status::OK();
  }
};

/// End-to-end result of LakeEngine::Integrate.
struct PipelineResult {
  Table integrated;
  AlignedSchema aligned;
  FuzzyFdReport report;
};

/// A long-lived integration session over one data lake. Create once, serve
/// many requests; safe for concurrent use.
class LakeEngine {
 public:
  /// Validates `options`, then builds the session resources (the embedding
  /// memo over the model, worker pool when num_threads != 1).
  static Result<std::unique_ptr<LakeEngine>> Create(
      EngineOptions options = EngineOptions());

  /// Opens a read-only replica over the committed catalog at `dir`: the
  /// latest generation is loaded (segments served via mmap, zero columns
  /// re-sketched) and pinned against the writer's retention GC, so the
  /// writer can keep checkpointing the same directory while this engine
  /// serves queries. The replica answers DiscoverUnionable / Integrate
  /// byte-identically to the writer at that generation; every mutation
  /// (RegisterTable, RegisterCsv, Unregister, SaveCatalog, OpenCatalog)
  /// fails with kFailedPrecondition. Follow the writer's newer checkpoints
  /// with RefreshReplica(). The pin is released when the engine is
  /// destroyed (or swept as stale if the process dies).
  static Result<std::unique_ptr<LakeEngine>> OpenReplica(
      const std::string& dir, EngineOptions options = EngineOptions());

  ~LakeEngine();  // out of line: ThreadPool is incomplete here

  // ------------------------------------------------------------ registry
  /// Registers an in-memory table under `name`: encodes it once into the
  /// session dictionary (column-parallel on the session pool) into the
  /// record every later request, discovery sketch and catalog save reads.
  /// The record is named `name` (whatever table.name() says) and keeps no
  /// reference to `table`: its values live only in the dictionary.
  /// ErrorCode::kAlreadyExists on duplicates and kInvalidArgument on an
  /// empty name, both checked before anything is encoded.
  Status RegisterTable(std::string name, const Table& table);
  /// Shared-ownership form: encodes `*table` like the form above and drops
  /// the pointer when it returns (kInvalidArgument when null).
  Status RegisterTable(std::string name, std::shared_ptr<const Table> table);
  /// Reads `path` as CSV and registers it under `name`.
  Status RegisterCsv(std::string name, const std::string& path,
                     const CsvOptions& csv = CsvOptions());
  /// Typed removal: ErrorCode::kNotFound when absent. Drops the name from
  /// the registry and the discovery index; in-flight requests holding the
  /// record are unaffected, and any cached alignment involving the name
  /// stops validating (version bump). The dictionary never shrinks.
  Status Unregister(const std::string& name);
  std::vector<std::string> TableNames() const;
  size_t NumTables() const;

  // ------------------------------------------------------------- catalog
  /// Loads the durable catalog at `dir` (see catalog/catalog.h): replays
  /// the persisted dictionary (no value re-hashing), registers a record
  /// built from the persisted codes for every cataloged table whose name is
  /// not already live, and inserts pre-built discovery sketches — a warm
  /// restart re-sketches zero columns for an unchanged lake, and its
  /// requests intern nothing. A corrupt, truncated, or version-skewed
  /// catalog fails with kIoError / kInvalidArgument before any table is
  /// registered; the engine stays fully usable and the caller rebuilds
  /// cold. On success the engine remembers `dir`, so the next SaveCatalog
  /// checkpoints incrementally. A non-null `tracer` records the open as a
  /// "catalog_open" span.
  Result<CatalogOpenReport> OpenCatalog(const std::string& dir,
                                        Tracer* tracer = nullptr);

  /// Persists the current lake to `dir` (created if missing). Syncs the
  /// discovery index first so sketches persist without re-sketching, then
  /// checkpoints: incremental (append new dict entries + changed tables,
  /// reuse unchanged extents, atomically rewrite the manifest) when the
  /// engine last opened/saved the same directory, full rewrite otherwise.
  /// Dropped tables leave the manifest and cannot resurrect; re-registered
  /// (changed) tables refresh their content fingerprint. A non-null
  /// `tracer` records the checkpoint as a "catalog_save" span.
  Result<CatalogSaveReport> SaveCatalog(const std::string& dir,
                                        Tracer* tracer = nullptr);

  /// Replica only: follows the writer to the latest committed generation.
  /// When CURRENT is unchanged this is a cheap no-op (one locked read, no
  /// manifest parse). When it advanced, the new generation loads with the
  /// same stage-then-commit discipline as an open: tables whose content
  /// fingerprint changed are replaced, tables gone from the manifest are
  /// dropped, unchanged tables are kept untouched — and the retention pin
  /// moves to the new generation only after the load succeeds, so a failed
  /// refresh leaves the replica serving its old generation consistently.
  /// kFailedPrecondition on a writer engine.
  Result<CatalogOpenReport> RefreshReplica();

  /// True for engines constructed by OpenReplica.
  bool is_replica() const { return replica_; }

  /// The committed generation this engine last saved (writer) or loaded
  /// (replica); 0 before any catalog interaction.
  uint64_t catalog_generation() const;

  /// Lifetime catalog counters (opens, saves, refreshes, bytes,
  /// re-sketches, generations).
  CatalogStats catalog_stats() const;

  // ------------------------------------------------------------ requests
  /// Integrates the named tables (registry lookup order = `names` order,
  /// which defines TID numbering) into one table, with stage report:
  /// IntegrateToSink into a table-building sink.
  Result<PipelineResult> Integrate(
      const std::vector<std::string>& names,
      const RequestOptions& request = RequestOptions()) const;

  /// Streaming form: emits result tuples to `sink` in batches of at most
  /// request.batch_rows without materializing the integrated table.
  /// Returns the final stage report (fd_stats.results = emitted tuples).
  Result<FuzzyFdReport> IntegrateToSink(
      const std::vector<std::string>& names, RowSink* sink,
      const RequestOptions& request = RequestOptions()) const;

  // ----------------------------------------------------------- discovery
  /// Top-k tables unionable with the registered table `name` (itself
  /// excluded), ranked by sketch-estimated column overlap + schema
  /// compatibility with deterministic (score desc, name asc) order.
  /// ErrorCode::kNotFound for unknown names, kCancelled when the context's
  /// token fires mid-search, kDeadlineExceeded when its deadline expires.
  /// Under BudgetPolicy::kTruncate a deadline stop instead returns the
  /// best-so-far candidates (scored over whatever the index held) and
  /// records the cut in `truncation` when given. The discovery index is
  /// brought up to date with the registry (TableRegistry::version())
  /// before the search. A bare CancelToken still converts implicitly.
  Result<std::vector<DiscoveryCandidate>> DiscoverUnionable(
      const std::string& name, size_t k,
      const RequestContext& ctx = RequestContext(),
      Truncation* truncation = nullptr) const;

  /// Ad-hoc form: sketches `query` in place (not registered; the session
  /// dictionary is untouched — sketches hash cell content directly) and
  /// searches the lake with it.
  Result<std::vector<DiscoveryCandidate>> DiscoverUnionable(
      const Table& query, size_t k,
      const RequestContext& ctx = RequestContext(),
      Truncation* truncation = nullptr) const;

  /// Discovery feeding integration: finds the top-k unionable partners of
  /// registered table `query_name`, then streams the integration of
  /// {query_name} ∪ partners (in rank order — that order defines TID
  /// numbering) through the align → match → fuzzy-FD pipeline into `sink`.
  /// Output is bit-identical to IntegrateToSink on the same name list.
  /// `request.cancel` / `request.progress` cover the discovery stage too
  /// (Stage::kDiscover). When `discovered` is non-null it receives the
  /// candidate list that was integrated.
  Result<FuzzyFdReport> DiscoverAndIntegrate(
      const std::string& query_name, size_t k, RowSink* sink,
      const RequestOptions& request = RequestOptions(),
      std::vector<DiscoveryCandidate>* discovered = nullptr) const;

  // ------------------------------------------------------------ session
  const EngineOptions& options() const { return options_; }
  /// The session embedding memo over the model of EngineOptions::model.
  /// Its hits()/misses() count alignment lookups as well as matching ones
  /// (misses = distinct strings embedded this session). Callers may embed
  /// through it too, e.g. EntityMatcherOptions::embeddings.
  const std::shared_ptr<const EmbeddingCache>& embedding_cache() const {
    return cache_;
  }
  /// The session interning dictionary every registered table is encoded
  /// into (NumDistinct() grows only at registration and catalog open).
  const SessionDict& session_dict() const { return *session_dict_; }
  /// AlignedSchema cache traffic: requests that skipped re-alignment
  /// because the same name set was aligned at the same registry version.
  uint64_t schema_cache_hits() const;
  /// Admission-control traffic (admitted / rejected / queued) across the
  /// engine's lifetime.
  AdmissionStats admission_stats() const;
  /// One consistent scrape of the engine's metrics registry plus the
  /// engine-level gauges sampled from their single authoritative sources
  /// at call time (admission/catalog/dict/pool stats, schema cache hits,
  /// registered tables, discovery index size, process peak RSS). The text
  /// exposition (`RenderMetricsText`) renders exactly this snapshot, so
  /// the two can never disagree. Request counters and per-stage latency
  /// histograms accumulate across the engine's lifetime.
  lakefuzz::MetricsSnapshot MetricsSnapshot() const;
  /// The registry behind MetricsSnapshot(): the engine-private one, or the
  /// external registry passed via EngineOptions::metrics.
  MetricsRegistry& metrics_registry() const { return *metrics_; }
  /// The discovery index (sketch + LSH state; num_tables/num_columns for
  /// observability). Kept in sync with the registry by Register/Unregister
  /// when discovery.build_at_register is set, and by the version-mismatch
  /// resync in every discovery call either way.
  const DiscoveryIndex& discovery_index() const { return *discovery_; }

 private:
  struct PreparedRequest {
    EncodedTables tables;  ///< the request's pinned records
    AlignedSchema aligned;
    FuzzyFdOptions effective;  ///< request knobs + session resources
  };

  /// One memoized alignment: valid while the registry still is at
  /// `version` (any mutation bumps it, so stale snapshots never resolve).
  struct CachedSchema {
    uint64_t version = 0;
    AlignedSchema aligned;
  };

  LakeEngine(EngineOptions options,
             std::shared_ptr<const EmbeddingCache> cache,
             std::unique_ptr<ThreadPool> pool);

  /// RAII admission slot: releases the concurrency gate (and wakes one
  /// queued waiter) on destruction. Constructed only after Admit succeeds.
  class AdmissionSlot {
   public:
    explicit AdmissionSlot(const LakeEngine* engine) : engine_(engine) {}
    ~AdmissionSlot();
    AdmissionSlot(const AdmissionSlot&) = delete;
    AdmissionSlot& operator=(const AdmissionSlot&) = delete;

   private:
    const LakeEngine* engine_;
  };

  /// Resolves names, aligns, and merges session resources into the
  /// request's FuzzyFdOptions — the shared front half of both request
  /// forms. `ctx` is the request's lifecycle bundle (already carrying the
  /// root trace span, when the request is traced).
  Result<PreparedRequest> Prepare(const std::vector<std::string>& names,
                                  const RequestOptions& request,
                                  const RequestContext& ctx) const;

  /// Brings the discovery index to the current registry version (resync on
  /// mismatch) — the invalidation contract every discovery query runs
  /// behind. The bulk sketch honors the context's token and deadline.
  Status EnsureDiscoverySynced(const RequestContext& ctx) const;

  /// Concurrency gate (EngineOptions::max_concurrent_requests). Blocks in
  /// the bounded wait queue until a slot frees, polling the context's token
  /// and deadline; overload past the queue bound rejects immediately with
  /// kResourceExhausted. On OK the caller owns one slot (pair with an
  /// AdmissionSlot).
  Status Admit(const RequestContext& ctx) const;
  void ReleaseAdmission() const;

  /// What a request form runs once it holds an admission slot.
  using RequestBody =
      std::function<Result<FuzzyFdReport>(const RequestContext& ctx)>;

  /// The request helper behind Integrate, IntegrateToSink and
  /// DiscoverAndIntegrate: assigns the request id, builds the context with
  /// this request's stage ledger and progress, opens the root span, waits
  /// for admission (once for the whole request), runs `body`, and records
  /// the request. `names` is read when the request finishes, so a body may
  /// extend it.
  Result<FuzzyFdReport> ServeRequest(const char* mode,
                                     const std::vector<std::string>& names,
                                     const RequestOptions& request,
                                     const RequestBody& body) const;

  /// The one integration path of every request form. When `aligned` is
  /// non-null it receives the request's alignment.
  Result<FuzzyFdReport> IntegrateToSinkImpl(
      const std::vector<std::string>& names, RowSink* sink,
      const RequestOptions& request, const RequestContext& ctx,
      AlignedSchema* aligned = nullptr) const;

  /// Stable pointers into the metrics registry, resolved once at
  /// construction (increments never take the registry lock).
  struct EngineMetrics {
    Counter* requests_total = nullptr;
    Counter* requests_failed = nullptr;
    Counter* requests_truncated = nullptr;
    Counter* fd_search_nodes = nullptr;
    Counter* fd_result_tuples = nullptr;
    Counter* fd_intra_tasks = nullptr;
    Counter* values_rewritten = nullptr;
    Counter* discovery_queries = nullptr;
    Histogram* request_ns = nullptr;
    /// lakefuzz_stage_<StageName>_latency_ns, indexed by Stage.
    std::array<Histogram*, kNumStages> stage_ns{};
  };

  /// Per-request epilogue shared by every request form: bumps the request
  /// counters, observes the latency histogram of every stage in `stages`
  /// that ran (failed requests included), and emits the slow-request line
  /// when EngineOptions::slow_request_ms is armed.
  void RecordRequest(const char* mode, uint64_t request_id,
                     const std::vector<std::string>& names,
                     const Status& status, const FuzzyFdReport* report,
                     double total_seconds, const StageLedger& stages) const;

  /// The discovery body shared by both DiscoverUnionable forms: the k
  /// check, the discover stage, the truncation-aware index sync, then
  /// `rank` over the synced index.
  using RankFn = std::function<Result<std::vector<DiscoveryCandidate>>(
      const RequestContext& ctx)>;
  Result<std::vector<DiscoveryCandidate>> Discover(
      size_t k, const RequestContext& ctx, Truncation* truncation,
      const RankFn& rank) const;

  /// Engine-level gauges refreshed from their authoritative sources on
  /// every scrape (the MetricsSnapshot() front half).
  void RefreshGauges() const;

  EngineOptions options_;
  std::shared_ptr<const EmbeddingCache> cache_;
  std::unique_ptr<ThreadPool> pool_;
  /// Metrics: the external registry from EngineOptions::metrics, or the
  /// engine-private owned_metrics_. em_ caches the metric pointers.
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  EngineMetrics em_;
  /// Engine-assigned request-id sequence (RequestOptions::request_id == 0).
  mutable std::atomic<uint64_t> next_request_id_{0};
  std::unique_ptr<SessionDict> session_dict_;
  std::unique_ptr<DiscoveryIndex> discovery_;
  TableRegistry registry_;

  /// AlignedSchema per (holistic alignment?, ordered name list), validated
  /// against the registry version its snapshot was taken at.
  using SchemaKey = std::pair<bool, std::vector<std::string>>;
  mutable std::mutex schema_mu_;
  mutable std::map<SchemaKey, CachedSchema> schema_cache_;
  mutable uint64_t schema_cache_hits_ = 0;

  /// Catalog association + counters. catalog_mu_ serializes OpenCatalog /
  /// SaveCatalog against each other (registry/dict/discovery mutations from
  /// other threads stay safe — those structures have their own locks).
  /// Folds a successful open/refresh report into catalog_stats_ (caller
  /// holds catalog_mu_).
  void AccumulateOpen(const CatalogOpenReport& report) const;

  mutable std::mutex catalog_mu_;
  CatalogState catalog_state_;
  mutable CatalogStats catalog_stats_;
  /// Read-only replica mode (set once by OpenReplica before any request).
  bool replica_ = false;
  /// The replica's generation pin file (guarded by catalog_mu_); removed on
  /// refresh-to-newer-generation and on destruction.
  std::string replica_pin_;

  /// Admission gate state (see Admit).
  mutable std::mutex admission_mu_;
  mutable std::condition_variable admission_cv_;
  mutable size_t active_requests_ = 0;
  mutable size_t waiting_requests_ = 0;
  mutable AdmissionStats admission_stats_;
};

}  // namespace lakefuzz

#endif  // LAKEFUZZ_CORE_ENGINE_H_
