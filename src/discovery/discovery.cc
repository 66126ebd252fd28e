#include "discovery/discovery.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "obs/trace.h"

#include "util/str.h"
#include "util/thread_pool.h"

namespace lakefuzz {

Status DiscoveryOptions::Validate() const {
  if (signature_size == 0 || signature_size > 4096) {
    return Status::InvalidArgument(StrFormat(
        "discovery.signature_size=%zu out of range [1, 4096]",
        signature_size));
  }
  if (bands == 0 || rows_per_band == 0) {
    return Status::InvalidArgument(
        "discovery.bands and rows_per_band must be positive");
  }
  if (bands * rows_per_band > signature_size) {
    return Status::InvalidArgument(StrFormat(
        "discovery banding %zu x %zu needs %zu signature slots but "
        "signature_size is %zu",
        bands, rows_per_band, bands * rows_per_band, signature_size));
  }
  if (overlap_weight < 0.0 || schema_weight < 0.0 ||
      overlap_weight + schema_weight <= 0.0) {
    return Status::InvalidArgument(
        "discovery weights must be non-negative and not both zero");
  }
  return Status::OK();
}

DiscoveryIndex::DiscoveryIndex(DiscoveryOptions options,
                               const ValueDict* dict, ThreadPool* pool)
    : options_(std::move(options)),
      dict_(dict),
      pool_(pool),
      lsh_(options_.bands, options_.rows_per_band) {
  sketch_options_.signature_size = options_.signature_size;
  sketch_options_.seed = options_.seed;
}

std::vector<ColumnSketch> DiscoveryIndex::SketchTable(
    const EncodedTable& table) const {
  const size_t cols = table.codes.size();
  std::vector<ColumnSketch> sketches(cols);
  // Column-parallel: each worker sketches one code column of the record.
  // Results land in distinct slots, so no synchronization beyond the
  // ParallelFor barrier.
  MaybeParallelFor(pool_, cols, [&](size_t c) {
    sketches[c] = BuildColumnSketch(table.schema.field(c).name,
                                    table.codes[c], *dict_, sketch_options_);
  });
  return sketches;
}

std::vector<ColumnSketch> DiscoveryIndex::SketchQuery(
    const Table& table) const {
  std::vector<ColumnSketch> sketches(table.NumColumns());
  MaybeParallelFor(pool_, table.NumColumns(), [&](size_t c) {
    sketches[c] = BuildColumnSketchFromValues(
        table.schema().field(c).name, table.ColumnValues(c), sketch_options_);
  });
  return sketches;
}

void DiscoveryIndex::AddTableLocked(
    const std::string& name, std::shared_ptr<const EncodedTable> table,
    std::vector<ColumnSketch> sketches,
    const std::vector<std::vector<uint64_t>>* band_keys) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) RemoveSlotLocked(it->second);

  size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = entries_.size();
    entries_.emplace_back();
  }
  TableEntry& entry = entries_[slot];
  entry.name = name;
  entry.pin = std::move(table);
  entry.columns =
      std::make_shared<const std::vector<ColumnSketch>>(std::move(sketches));
  entry.live = true;
  const std::vector<ColumnSketch>& columns = *entry.columns;
  entry.col_ids.assign(columns.size(), kNoColId);
  for (size_t c = 0; c < columns.size(); ++c) {
    if (columns[c].empty()) continue;  // nothing to collide on
    uint32_t id;
    if (!free_col_ids_.empty()) {
      id = free_col_ids_.back();
      free_col_ids_.pop_back();
      col_refs_[id] = {static_cast<uint32_t>(slot), static_cast<uint32_t>(c)};
    } else {
      id = static_cast<uint32_t>(col_refs_.size());
      col_refs_.emplace_back(static_cast<uint32_t>(slot),
                             static_cast<uint32_t>(c));
    }
    entry.col_ids[c] = id;
    if (band_keys != nullptr && c < band_keys->size() &&
        !(*band_keys)[c].empty()) {
      lsh_.AddWithKeys(id, (*band_keys)[c]);
    } else {
      lsh_.Add(id, columns[c].signature);
    }
  }
  by_name_[name] = slot;
}

void DiscoveryIndex::RemoveSlotLocked(size_t slot) {
  TableEntry& entry = entries_[slot];
  for (size_t c = 0; c < entry.col_ids.size(); ++c) {
    const uint32_t id = entry.col_ids[c];
    if (id == kNoColId) continue;
    lsh_.Remove(id, (*entry.columns)[c].signature);
    free_col_ids_.push_back(id);
  }
  by_name_.erase(entry.name);
  entry = TableEntry();
  free_slots_.push_back(slot);
}

void DiscoveryIndex::AddTable(const std::string& name,
                              std::shared_ptr<const EncodedTable> table,
                              uint64_t version) {
  if (table == nullptr) return;
  std::vector<ColumnSketch> sketches = SketchTable(*table);
  std::lock_guard<std::mutex> lock(mu_);
  AddTableLocked(name, std::move(table), std::move(sketches));
  // Advance only from the immediate predecessor: this mutation makes a
  // current index current again, but can never make a stale index (lazy
  // mode, or one that missed a concurrent mutation) claim freshness — the
  // next query's version check still triggers the reconciling Resync.
  if (version_ + 1 == version) version_ = version;
}

void DiscoveryIndex::LoadTable(
    const std::string& name, std::shared_ptr<const EncodedTable> table,
    std::vector<ColumnSketch> sketches,
    const std::vector<std::vector<uint64_t>>& band_keys, uint64_t version) {
  if (table == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  AddTableLocked(name, std::move(table), std::move(sketches), &band_keys);
  // Predecessor-only advance, as in AddTable: loading into a fresh engine
  // (registry versions 1, 2, 3, ...) keeps the index current step by step;
  // loading into a session that was already stale leaves it observably
  // stale, and the next query's Resync finds the loaded pins in place.
  if (version_ + 1 == version) version_ = version;
}

std::shared_ptr<const std::vector<ColumnSketch>> DiscoveryIndex::TableSketches(
    const std::string& name, const EncodedTable* pin) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return nullptr;
  const TableEntry& entry = entries_[it->second];
  if (!entry.live || entry.pin.get() != pin) return nullptr;
  return entry.columns;
}

void DiscoveryIndex::RemoveTable(const std::string& name, uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it != by_name_.end()) RemoveSlotLocked(it->second);
  // Same predecessor-only rule as AddTable (see there): a stale index must
  // stay observably stale.
  if (version_ + 1 == version) version_ = version;
}

Status DiscoveryIndex::Resync(
    const std::vector<
        std::pair<std::string, std::shared_ptr<const EncodedTable>>>&
        snapshot,
    uint64_t version, const RequestContext& ctx) {
  // One resync at a time: a second stale query waits here, then finds the
  // version already advanced and diffs to a no-op.
  std::lock_guard<std::mutex> sync_lock(resync_mu_);
  std::vector<std::pair<std::string, std::shared_ptr<const EncodedTable>>>
      to_add;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (version_ >= version) return Status::OK();
    // Pass 1: drop entries the snapshot no longer has (or has replaced —
    // the pinned record's pointer identity is the check).
    for (size_t slot = 0; slot < entries_.size(); ++slot) {
      if (!entries_[slot].live) continue;
      auto it = std::lower_bound(
          snapshot.begin(), snapshot.end(), entries_[slot].name,
          [](const auto& p, const std::string& n) { return p.first < n; });
      if (it == snapshot.end() || it->first != entries_[slot].name ||
          it->second.get() != entries_[slot].pin.get()) {
        RemoveSlotLocked(slot);
      }
    }
    // Pass 2: collect what is missing.
    for (const auto& [name, table] : snapshot) {
      if (by_name_.find(name) == by_name_.end()) {
        to_add.emplace_back(name, table);
      }
    }
  }

  // Bulk sketching outside the index lock, parallel over (table, column)
  // tasks — the bulk-load path scales past per-table column counts.
  std::vector<std::pair<size_t, size_t>> tasks;  // (to_add idx, column)
  std::vector<std::vector<ColumnSketch>> built(to_add.size());
  for (size_t t = 0; t < to_add.size(); ++t) {
    built[t].resize(to_add[t].second->codes.size());
    for (size_t c = 0; c < to_add[t].second->codes.size(); ++c) {
      tasks.emplace_back(t, c);
    }
  }
  std::atomic<bool> stop_flag{false};
  MaybeParallelFor(pool_, tasks.size(), [&](size_t i) {
    // Cooperative stop checkpoint per sketch task: remaining tasks degrade
    // to no-ops so a fired token / expired deadline drains the bulk build
    // quickly (the typed status is re-derived on the driving thread below).
    if (stop_flag.load(std::memory_order_relaxed)) return;
    if (!ctx.CheckStop("discovery index resync").ok()) {
      stop_flag.store(true, std::memory_order_relaxed);
      return;
    }
    const auto [t, c] = tasks[i];
    const EncodedTable& table = *to_add[t].second;
    built[t][c] = BuildColumnSketch(table.schema.field(c).name,
                                    table.codes[c], *dict_, sketch_options_);
  });
  // Nothing is inserted on a stop and the version stays behind: the index
  // remains observably stale and the next discovery call resyncs from
  // scratch. A resync has no partial result, so kTruncate does not apply —
  // the stop is always the request's error.
  LAKEFUZZ_RETURN_IF_ERROR(ctx.CheckStop("discovery index resync"));
  if (stop_flag.load(std::memory_order_relaxed)) {
    return Status::DeadlineExceeded("discovery index resync deadline exceeded");
  }

  std::lock_guard<std::mutex> lock(mu_);
  for (size_t t = 0; t < to_add.size(); ++t) {
    // A concurrent AddTable may have raced us here; replace-by-name keeps
    // exactly one entry either way.
    AddTableLocked(to_add[t].first, std::move(to_add[t].second),
                   std::move(built[t]));
  }
  version_ = std::max(version_, version);
  return Status::OK();
}

uint64_t DiscoveryIndex::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

size_t DiscoveryIndex::num_tables() const {
  std::lock_guard<std::mutex> lock(mu_);
  return by_name_.size();
}

size_t DiscoveryIndex::num_columns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lsh_.num_entries();
}

std::vector<DiscoveryIndex::CandidateRef>
DiscoveryIndex::CandidateSnapshotLocked(
    const std::vector<const ColumnSketch*>& query, size_t k,
    size_t exclude_slot) const {
  // Candidate generation: any table one of whose columns shares an LSH
  // band bucket with a query column. Slot order (ascending) keeps the
  // scoring loop deterministic.
  std::vector<char> is_candidate(entries_.size(), 0);
  for (const ColumnSketch* qc : query) {
    for (uint32_t id : lsh_.Query(qc->signature)) {
      is_candidate[col_refs_[id].first] = 1;
    }
  }
  std::vector<size_t> slots;
  for (size_t slot = 0; slot < entries_.size(); ++slot) {
    if (is_candidate[slot] && entries_[slot].live && slot != exclude_slot) {
      slots.push_back(slot);
    }
  }
  // Small-lake / sparse-collision fallback: when LSH surfaces fewer than k
  // tables, score everything rather than return a short list. Recall never
  // drops below brute force for small k; large lakes stay on the LSH path.
  if (slots.size() < k) {
    slots.clear();
    for (size_t slot = 0; slot < entries_.size(); ++slot) {
      if (entries_[slot].live && slot != exclude_slot) slots.push_back(slot);
    }
  }
  std::vector<CandidateRef> out;
  out.reserve(slots.size());
  for (size_t slot : slots) {
    out.push_back(CandidateRef{entries_[slot].name, entries_[slot].columns});
  }
  return out;
}

Result<std::vector<DiscoveryCandidate>> DiscoveryIndex::ScoreCandidates(
    const std::vector<const ColumnSketch*>& query,
    const std::vector<CandidateRef>& candidates, size_t k,
    const RequestContext& ctx, Truncation* truncation) const {
  // Sketch-scoring span: both TopK entry points funnel through here, so
  // one seam traces the candidate-ranking cost of every discovery query.
  ScopedSpan rank_span(ctx, "discover_rank");
  rank_span.AddAttr("candidates", static_cast<int64_t>(candidates.size()));
  rank_span.AddAttr("query_columns", static_cast<int64_t>(query.size()));
  std::vector<DiscoveryCandidate> out;
  const double denom = static_cast<double>(query.size());
  // Normalizing by the weight sum keeps score in [0, 1] for ANY valid
  // weight pair (Validate only requires non-negative, not sum == 1).
  const double weight_sum = options_.overlap_weight + options_.schema_weight;
  out.reserve(candidates.size());
  for (const CandidateRef& ref : candidates) {
    Status stop = ctx.CheckStop("discovery");
    if (!stop.ok()) {
      // Best-so-far degradation: under kTruncate a deadline stop ranks the
      // candidates scored so far instead of failing the search.
      if (!ctx.ShouldTruncate(stop.code())) return stop;
      if (truncation != nullptr && !truncation->truncated) {
        truncation->truncated = true;
        truncation->stage = Stage::kDiscover;
        truncation->reason = stop.message();
        truncation->components_completed = out.size();
        truncation->components_skipped = candidates.size() - out.size();
      }
      break;
    }
    DiscoveryCandidate cand;
    cand.name = ref.name;
    for (const ColumnSketch* qc : query) {
      double best = 0.0, best_j = 0.0, best_c = 0.0;
      for (const ColumnSketch& tc : *ref.columns) {
        if (tc.empty()) continue;
        const double j = EstimateJaccard(*qc, tc);
        const double c = SchemaCompatibility(*qc, tc);
        const double s = (options_.overlap_weight * j +
                          options_.schema_weight * c) /
                         weight_sum;
        if (s > best) {
          best = s;
          best_j = j;
          best_c = c;
        }
      }
      cand.score += best;
      cand.overlap += best_j;
      cand.compat += best_c;
      if (best_j > 0.0) ++cand.matched_columns;
    }
    cand.score /= denom;
    cand.overlap /= denom;
    cand.compat /= denom;
    out.push_back(std::move(cand));
  }
  std::sort(out.begin(), out.end(),
            [](const DiscoveryCandidate& a, const DiscoveryCandidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.name < b.name;
            });
  if (out.size() > k) out.resize(k);
  rank_span.AddAttr("ranked", static_cast<int64_t>(out.size()));
  return out;
}

Result<std::vector<DiscoveryCandidate>> DiscoveryIndex::TopK(
    const std::vector<ColumnSketch>& query, size_t k,
    const RequestContext& ctx, Truncation* truncation) const {
  if (k == 0) {
    return Status::InvalidArgument("discovery k must be positive");
  }
  std::vector<const ColumnSketch*> qcols;
  for (const ColumnSketch& qc : query) {
    if (!qc.empty()) qcols.push_back(&qc);
  }
  if (qcols.empty()) {
    return std::vector<DiscoveryCandidate>();  // no signal: all scores 0
  }
  std::vector<CandidateRef> candidates;
  {
    std::lock_guard<std::mutex> lock(mu_);
    candidates = CandidateSnapshotLocked(qcols, k, /*exclude_slot=*/SIZE_MAX);
  }
  // Scoring runs on the snapshot only — concurrent Register/Unregister and
  // other queries proceed in parallel.
  return ScoreCandidates(qcols, candidates, k, ctx, truncation);
}

Result<std::vector<DiscoveryCandidate>> DiscoveryIndex::TopKByName(
    const std::string& name, size_t k, const RequestContext& ctx,
    Truncation* truncation) const {
  if (k == 0) {
    return Status::InvalidArgument("discovery k must be positive");
  }
  // Keeps the query table's sketches alive through the unlocked scoring.
  std::shared_ptr<const std::vector<ColumnSketch>> query_columns;
  std::vector<const ColumnSketch*> qcols;
  std::vector<CandidateRef> candidates;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_name_.find(name);
    if (it == by_name_.end()) {
      return Status::NotFound(StrFormat(
          "table '%s' is not in the discovery index", name.c_str()));
    }
    query_columns = entries_[it->second].columns;
    for (const ColumnSketch& qc : *query_columns) {
      if (!qc.empty()) qcols.push_back(&qc);
    }
    if (qcols.empty()) return std::vector<DiscoveryCandidate>();
    candidates = CandidateSnapshotLocked(qcols, k, it->second);
  }
  return ScoreCandidates(qcols, candidates, k, ctx, truncation);
}

}  // namespace lakefuzz
