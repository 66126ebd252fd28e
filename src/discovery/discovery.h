// DiscoveryIndex: lake-scale unionable-table search over sketches.
//
// The paper's operator integrates a *given* set of unionable tables; in a
// real lake someone must first find that set ("Table Integration in Data
// Lakes Unleashed" makes this a first-class stage, and Gen-T shows
// integration quality hinges on picking the right originating tables). A
// DiscoveryIndex is that stage: every registered table is summarized into
// per-column MinHash + profile sketches (column_sketch.h) and indexed in an
// LSH banding structure (lsh_index.h), so "which tables union with this
// one?" is answered from sketches alone — no cell data is touched at query
// time.
//
// Construction is incremental: LakeEngine feeds AddTable / RemoveTable as
// the registry mutates (sketching runs column-parallel on the session
// pool), and every index state carries the TableRegistry::version() it is
// consistent with. A query that observes a version mismatch first runs
// Resync — a bulk diff against a registry snapshot whose sketching
// parallelizes over (table, column) tasks — so the index also serves
// engines that defer building entirely (DiscoveryOptions::build_at_register
// = false, the bulk-load pattern benchmarked by bench_discovery).
//
// Determinism: sketches depend only on value content (see column_sketch.h),
// LSH candidate sets are sorted, and scoring iterates candidates in slot
// order with a (score desc, name asc) final sort — so the same lake yields
// identical top-k lists no matter how many threads built the index.
#ifndef LAKEFUZZ_DISCOVERY_DISCOVERY_H_
#define LAKEFUZZ_DISCOVERY_DISCOVERY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "discovery/column_sketch.h"
#include "discovery/lsh_index.h"
#include "fd/session_dict.h"
#include "table/table.h"
#include "util/request_context.h"
#include "util/result.h"

namespace lakefuzz {

class ThreadPool;

/// Discovery knobs, builder-style like EngineOptions. Validate() runs in
/// LakeEngine::Create before any resource is allocated.
struct DiscoveryOptions {
  /// MinHash functions per column signature (estimate error ~ 1/sqrt(k)).
  size_t signature_size = 64;
  /// LSH banding: `bands` bands of `rows_per_band` signature slots.
  /// bands · rows_per_band must not exceed signature_size. Two columns with
  /// Jaccard j collide with probability 1 - (1 - j^rows)^bands; the default
  /// 16 x 4 passes j = 0.5 columns ~65% of the time per column (and nearly
  /// always for tables sharing several columns) while dropping j < 0.1.
  size_t bands = 16;
  size_t rows_per_band = 4;
  /// Salt for the MinHash family.
  uint64_t seed = 0x1a4ef0 + 2026;
  /// Candidate score = (overlap_weight · estimated-Jaccard +
  /// schema_weight · profile-compatibility) / (overlap_weight +
  /// schema_weight), averaged over query columns — normalized, so score
  /// stays in [0, 1] for any valid weight pair.
  double overlap_weight = 0.7;
  double schema_weight = 0.3;
  /// Sketch and index each table as it registers (incremental, on the
  /// session pool). When false, registration only encodes the table and
  /// the whole index is built lazily — in one parallel bulk pass over the
  /// registered records' codes — by the first discovery call that observes
  /// a registry version mismatch.
  bool build_at_register = true;

  DiscoveryOptions& SetSignatureSize(size_t k) {
    signature_size = k;
    return *this;
  }
  DiscoveryOptions& SetBanding(size_t b, size_t r) {
    bands = b;
    rows_per_band = r;
    return *this;
  }
  DiscoveryOptions& SetWeights(double overlap, double schema) {
    overlap_weight = overlap;
    schema_weight = schema;
    return *this;
  }
  DiscoveryOptions& SetBuildAtRegister(bool eager) {
    build_at_register = eager;
    return *this;
  }

  Status Validate() const;
};

/// One scored discovery hit.
struct DiscoveryCandidate {
  std::string name;
  /// Combined score in [0, 1]: the quantity candidates are ranked by.
  double score = 0.0;
  /// Mean estimated value-overlap (Jaccard) of the best column match per
  /// query column — the "do these tables share data?" half of the score.
  double overlap = 0.0;
  /// Mean schema compatibility of those matches — the "do these tables
  /// share shape?" half.
  double compat = 0.0;
  /// Query columns whose best match had non-zero estimated overlap.
  size_t matched_columns = 0;
};

/// Sketch + LSH index over one engine session's registered tables.
/// Thread-safe: mutators and queries may run concurrently (one internal
/// mutex; the expensive sketching always happens outside it).
class DiscoveryIndex {
 public:
  /// `dict` is the session dictionary the indexed records were encoded
  /// into (it supplies the content hashes sketches are built over); `pool`
  /// (nullable = serial) runs sketch builds. Neither is owned; both must
  /// outlive the index.
  DiscoveryIndex(DiscoveryOptions options, const ValueDict* dict,
                 ThreadPool* pool);

  const DiscoveryOptions& options() const { return options_; }

  /// Sketches the record `table` (column-parallel on the pool) and indexes
  /// it under `name`, replacing any existing entry of that name; the entry
  /// pins the record. `version` is the
  /// registry version the corresponding Register produced (captured under
  /// the registry lock). The index version advances to `version` only when
  /// it was current at `version - 1` — an index that was already stale
  /// stays stale, so the next query's Resync still runs (this is what
  /// keeps a lazily built index from claiming freshness it does not have).
  void AddTable(const std::string& name,
                std::shared_ptr<const EncodedTable> table, uint64_t version);

  /// Drops `name` from the index (no-op when absent). Same version-advance
  /// rule as AddTable.
  void RemoveTable(const std::string& name, uint64_t version);

  /// Catalog-load form of AddTable: indexes `name` with pre-built sketches
  /// and pre-computed LSH band keys (band_keys[c] as produced by
  /// LshIndex::ComputeBandKeys; empty for unindexed columns) — no sketching
  /// and no band hashing happens here, which is what makes a warm catalog
  /// open re-sketch zero columns. The sketches must have been built with
  /// this index's options (the catalog manifest enforces that). Same
  /// version-advance rule as AddTable.
  void LoadTable(const std::string& name,
                 std::shared_ptr<const EncodedTable> table,
                 std::vector<ColumnSketch> sketches,
                 const std::vector<std::vector<uint64_t>>& band_keys,
                 uint64_t version);

  /// The indexed sketches of `name`, or nullptr when the name is absent or
  /// its entry pins a different snapshot than `pin` (pointer identity, the
  /// same staleness check Resync uses). Lets the catalog writer persist
  /// already-built sketches instead of re-sketching.
  std::shared_ptr<const std::vector<ColumnSketch>> TableSketches(
      const std::string& name, const EncodedTable* pin) const;

  /// Reconciles the index against a full registry snapshot (sorted
  /// name → record pairs from TableRegistry::Snapshot): stale entries are
  /// removed, replaced tables re-sketched, missing tables added — sketching
  /// parallelized over (table, column) tasks. Idempotent; concurrent
  /// resyncs serialize. A fired token / expired deadline in `ctx` aborts
  /// the bulk sketch with kCancelled / kDeadlineExceeded and leaves the
  /// index stale (the next call resyncs from scratch) — this is the
  /// dominant cost of a lazy-mode discovery call, so it must honor the
  /// request's lifecycle.
  Status Resync(
      const std::vector<
          std::pair<std::string, std::shared_ptr<const EncodedTable>>>&
          snapshot,
      uint64_t version, const RequestContext& ctx = RequestContext());

  /// The registry version the index last reconciled with. A caller holding
  /// TableRegistry::version() != this must Resync before trusting queries.
  uint64_t version() const;

  size_t num_tables() const;
  /// Indexed (non-empty) columns across all tables.
  size_t num_columns() const;

  /// Sketches a registered table for indexing (column-parallel) from its
  /// record's code columns — no cell is hashed or interned.
  std::vector<ColumnSketch> SketchTable(const EncodedTable& table) const;

  /// Sketches an ad-hoc query table without touching the session
  /// dictionary (MinHash needs only Value content hashes, which are
  /// identical either way) — one-off query traffic cannot grow the
  /// session-lifetime dictionary.
  std::vector<ColumnSketch> SketchQuery(const Table& table) const;

  /// Top-k candidates for an ad-hoc query sketch set, ranked by score with
  /// deterministic (score desc, name asc) order; fewer than k when the lake
  /// is small. `ctx` is polled between candidate scorings: a fired token
  /// surfaces as kCancelled, an expired deadline as kDeadlineExceeded —
  /// unless ctx.policy is kTruncate, in which case the candidates scored so
  /// far are ranked and returned with `truncation` (when given) recording
  /// the best-so-far cut at Stage::kDiscover.
  Result<std::vector<DiscoveryCandidate>> TopK(
      const std::vector<ColumnSketch>& query, size_t k,
      const RequestContext& ctx = RequestContext(),
      Truncation* truncation = nullptr) const;

  /// Top-k candidates for an indexed table, excluding itself.
  /// ErrorCode::kNotFound when `name` is not indexed. Same lifecycle and
  /// truncation contract as TopK.
  Result<std::vector<DiscoveryCandidate>> TopKByName(
      const std::string& name, size_t k,
      const RequestContext& ctx = RequestContext(),
      Truncation* truncation = nullptr) const;

 private:
  struct TableEntry {
    std::string name;
    std::shared_ptr<const EncodedTable> pin;  ///< identity check for Resync
    /// Immutable once built: queries snapshot the shared_ptr under the
    /// index lock and score outside it (a concurrent RemoveTable cannot
    /// invalidate an in-flight scoring pass).
    std::shared_ptr<const std::vector<ColumnSketch>> columns;
    /// LSH id per column; kNoColId for empty (never-indexed) columns.
    std::vector<uint32_t> col_ids;
    bool live = false;
  };
  /// One scorable candidate snapshotted out of the index.
  struct CandidateRef {
    std::string name;
    std::shared_ptr<const std::vector<ColumnSketch>> columns;
  };
  static constexpr uint32_t kNoColId = UINT32_MAX;

  /// When `band_keys` is non-null, column c is LSH-inserted via its
  /// precomputed keys instead of hashing its signature (the catalog path).
  void AddTableLocked(
      const std::string& name, std::shared_ptr<const EncodedTable> table,
      std::vector<ColumnSketch> sketches,
      const std::vector<std::vector<uint64_t>>* band_keys = nullptr);
  void RemoveSlotLocked(size_t slot);
  /// LSH candidate generation + snapshot (called with mu_ held): the
  /// candidate tables' names and sketch vectors, in slot order.
  std::vector<CandidateRef> CandidateSnapshotLocked(
      const std::vector<const ColumnSketch*>& query, size_t k,
      size_t exclude_slot) const;
  /// Exact scoring over a snapshot — runs without the index lock.
  Result<std::vector<DiscoveryCandidate>> ScoreCandidates(
      const std::vector<const ColumnSketch*>& query,
      const std::vector<CandidateRef>& candidates, size_t k,
      const RequestContext& ctx, Truncation* truncation) const;

  DiscoveryOptions options_;
  SketchOptions sketch_options_;
  const ValueDict* dict_;
  ThreadPool* pool_;

  mutable std::mutex mu_;  ///< guards everything below
  uint64_t version_ = 0;
  std::unordered_map<std::string, size_t> by_name_;
  std::vector<TableEntry> entries_;
  std::vector<size_t> free_slots_;
  /// LSH column id → (table slot, column index); freed ids are recycled.
  std::vector<std::pair<uint32_t, uint32_t>> col_refs_;
  std::vector<uint32_t> free_col_ids_;
  LshIndex lsh_;

  /// Serializes Resync's compute phase so concurrent stale queries don't
  /// sketch the same lake twice.
  mutable std::mutex resync_mu_;
};

}  // namespace lakefuzz

#endif  // LAKEFUZZ_DISCOVERY_DISCOVERY_H_
