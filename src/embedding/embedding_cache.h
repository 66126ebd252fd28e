// EmbeddingCache: the one memo of EmbeddingModel::Embed.
//
// Every consumer of embeddings reads its vectors through one: holistic
// column alignment (ColumnEmbedder), value matching and entity matching. The
// sequential merge re-embeds the same strings over and over: every round
// embeds the incoming column's values, and group representatives — which
// mostly survive from round to round — are re-embedded each time they are
// compared. A LakeEngine keeps one cache per session, so a string embedded
// by alignment, or by an earlier request, is a hit for every later lookup.
// Vectors are stored *pre-normalized* to unit length, so the matcher's
// cosine distance degrades to a single dot product
// (CosineDistancePrenormalized) instead of three (Dot + two norm
// recomputations) per cell. For a prenormalized model (every MakeModel
// profile) a stored vector is Embed's output unchanged.
//
// Concurrency: lookups are sharded by string hash over a fixed 16 shards;
// each shard has its own mutex, so parallel cost-matrix workers warming the
// cache contend only within a shard. The memo is unbounded, and entries are
// shared_ptr so a returned vector stays valid across rehashes.
#ifndef LAKEFUZZ_EMBEDDING_EMBEDDING_CACHE_H_
#define LAKEFUZZ_EMBEDDING_EMBEDDING_CACHE_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "embedding/model.h"

namespace lakefuzz {

/// Memoizing, normalizing embedding lookup table. Thread-safe.
class EmbeddingCache {
 public:
  explicit EmbeddingCache(std::shared_ptr<const EmbeddingModel> model);

  /// The unit-normalized embedding of `value`. The returned vector is
  /// immutable and remains valid for the cache's lifetime (or the caller's
  /// copy of the shared_ptr, whichever is longer). Takes const string& so a
  /// hit costs no allocation — call sites on the hot path already hold
  /// std::strings.
  std::shared_ptr<const Vec> GetNormalized(const std::string& value) const;

  const EmbeddingModel& model() const { return *model_; }

  size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  /// One miss per distinct string embedded, at any thread count: the number
  /// of entries the memo holds.
  size_t misses() const { return misses_.load(std::memory_order_relaxed); }

  /// Hit/miss counters read as one pair — the unit of per-request deltas
  /// when a LakeEngine shares this cache across Integrate calls (the
  /// matcher snapshots counters() before and after a call and reports the
  /// difference). With concurrent requests on one engine the attribution
  /// between requests is approximate; totals are exact.
  struct Counters {
    size_t hits = 0;
    size_t misses = 0;
  };
  Counters counters() const { return Counters{hits(), misses()}; }

 private:
  static constexpr size_t kNumShards = 16;

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::shared_ptr<const Vec>> map;
  };

  Shard& ShardFor(std::string_view value) const;

  std::shared_ptr<const EmbeddingModel> model_;
  /// True when the model already emits unit vectors (the invariant threaded
  /// through EmbeddingModel::prenormalized()); skips the defensive
  /// re-normalization.
  bool model_prenormalized_;
  mutable std::array<Shard, kNumShards> shards_;
  mutable std::atomic<size_t> hits_{0};
  mutable std::atomic<size_t> misses_{0};
};

}  // namespace lakefuzz

#endif  // LAKEFUZZ_EMBEDDING_EMBEDDING_CACHE_H_
