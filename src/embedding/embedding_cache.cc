#include "embedding/embedding_cache.h"

#include <functional>

namespace lakefuzz {

EmbeddingCache::EmbeddingCache(std::shared_ptr<const EmbeddingModel> model)
    : model_(std::move(model)),
      model_prenormalized_(model_->prenormalized()) {}

EmbeddingCache::Shard& EmbeddingCache::ShardFor(std::string_view value) const {
  size_t h = std::hash<std::string_view>{}(value);
  return shards_[h % kNumShards];
}

std::shared_ptr<const Vec> EmbeddingCache::GetNormalized(
    const std::string& value) const {
  Shard& shard = ShardFor(value);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(value);
    if (it != shard.map.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Embed outside the lock: model calls dominate and are thread-compatible.
  auto vec = std::make_shared<Vec>(model_->Embed(value));
  if (!model_prenormalized_) NormalizeInPlace(vec.get());

  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.map.emplace(value, std::move(vec));
  // A lost race (another thread inserted first) counts as a hit so the
  // hit/miss totals stay deterministic across thread counts (one miss per
  // inserted key), even though this call did embed.
  (inserted ? misses_ : hits_).fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

}  // namespace lakefuzz
