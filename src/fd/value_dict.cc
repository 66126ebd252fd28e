#include "fd/value_dict.h"

#include <cassert>

namespace lakefuzz {

ValueDict::ValueDict() {
  for (auto& b : buckets_) b.store(nullptr, std::memory_order_relaxed);
  for (auto& b : hash_buckets_) b.store(nullptr, std::memory_order_relaxed);
  // Code 0 = null: bucket 0 is allocated eagerly so Decode(kNullCode) /
  // HashOf(kNullCode) work on a fresh dictionary (default Value is null,
  // zero-initialized hash is 0).
  EnsureBucket(0);
  for (auto& sh : shards_) sh.slots.assign(kInitialSlots, kNullCode);
}

ValueDict::~ValueDict() {
  for (auto& b : buckets_) delete[] b.load(std::memory_order_relaxed);
  for (auto& b : hash_buckets_) delete[] b.load(std::memory_order_relaxed);
}

void ValueDict::EnsureBucket(size_t b) {
  if (buckets_[b].load(std::memory_order_acquire) != nullptr) return;
  std::lock_guard<std::mutex> lock(alloc_mu_);
  if (buckets_[b].load(std::memory_order_relaxed) != nullptr) return;
  // Value-initialize both arrays (null Values, zero hashes) BEFORE the
  // release publish, so a concurrent reader that wins the pointer race
  // never observes uninitialized slots.
  auto* hashes = new uint64_t[BucketCapacity(b)]();
  auto* values = new Value[BucketCapacity(b)];
  hash_buckets_[b].store(hashes, std::memory_order_release);
  buckets_[b].store(values, std::memory_order_release);
}

uint32_t ValueDict::Append(const Value& v, uint64_t hash) {
  const uint32_t code = size_.fetch_add(1, std::memory_order_acq_rel);
  assert(code != UINT32_MAX && "ValueDict code space exhausted");
  const size_t b = BucketOf(code);
  EnsureBucket(b);
  const size_t off = code - BucketBase(b);
  buckets_[b].load(std::memory_order_relaxed)[off] = v;
  hash_buckets_[b].load(std::memory_order_relaxed)[off] = hash;
  return code;
}

uint32_t ValueDict::Append(Value&& v, uint64_t hash) {
  const uint32_t code = size_.fetch_add(1, std::memory_order_acq_rel);
  assert(code != UINT32_MAX && "ValueDict code space exhausted");
  const size_t b = BucketOf(code);
  EnsureBucket(b);
  const size_t off = code - BucketBase(b);
  buckets_[b].load(std::memory_order_relaxed)[off] = std::move(v);
  hash_buckets_[b].load(std::memory_order_relaxed)[off] = hash;
  return code;
}

uint32_t ValueDict::InternHashed(Value&& v, uint64_t hash, bool* inserted) {
  assert(!v.is_null());
  Shard& sh = shards_[ShardOf(hash)];
  std::lock_guard<std::mutex> lock(sh.mu);
  const size_t mask = sh.slots.size() - 1;
  size_t s = static_cast<size_t>(hash) & mask;
  while (true) {
    uint32_t code = sh.slots[s];
    if (code == kNullCode) break;
    if (HashOf(code) == hash && Decode(code) == v) {
      if (inserted != nullptr) *inserted = false;
      return code;
    }
    s = (s + 1) & mask;
  }
  const uint32_t code = Append(std::move(v), hash);
  sh.slots[s] = code;
  ++sh.used;
  if (sh.used * 10 >= sh.slots.size() * 7) {
    RehashShard(sh, sh.slots.size() * 2);
  }
  if (inserted != nullptr) *inserted = true;
  return code;
}

uint32_t ValueDict::InternHashed(const Value& v, uint64_t hash,
                                 bool* inserted) {
  assert(!v.is_null());
  Shard& sh = shards_[ShardOf(hash)];
  std::lock_guard<std::mutex> lock(sh.mu);
  const size_t mask = sh.slots.size() - 1;
  size_t s = static_cast<size_t>(hash) & mask;
  while (true) {
    uint32_t code = sh.slots[s];
    if (code == kNullCode) break;
    // 64-bit hash equality first: a full Value compare only runs on repeat
    // occurrences of the same value (the common case) or true collisions.
    if (HashOf(code) == hash && Decode(code) == v) {
      if (inserted != nullptr) *inserted = false;
      return code;
    }
    s = (s + 1) & mask;
  }
  const uint32_t code = Append(v, hash);
  sh.slots[s] = code;
  ++sh.used;
  // Grow at ~0.7 load to keep probe chains short.
  if (sh.used * 10 >= sh.slots.size() * 7) {
    RehashShard(sh, sh.slots.size() * 2);
  }
  if (inserted != nullptr) *inserted = true;
  return code;
}

uint32_t ValueDict::Find(const Value& v) const {
  if (v.is_null()) return kNullCode;
  const uint64_t hash = v.Hash();
  const Shard& sh = shards_[ShardOf(hash)];
  std::lock_guard<std::mutex> lock(sh.mu);
  const size_t mask = sh.slots.size() - 1;
  size_t s = static_cast<size_t>(hash) & mask;
  while (true) {
    uint32_t code = sh.slots[s];
    if (code == kNullCode) return kNullCode;
    if (HashOf(code) == hash && Decode(code) == v) return code;
    s = (s + 1) & mask;
  }
}

void ValueDict::RehashShard(Shard& shard, size_t new_slot_count) const {
  std::vector<uint32_t> old = std::move(shard.slots);
  shard.slots.assign(new_slot_count, kNullCode);
  const size_t mask = new_slot_count - 1;
  for (uint32_t code : old) {
    if (code == kNullCode) continue;
    size_t s = static_cast<size_t>(HashOf(code)) & mask;
    while (shard.slots[s] != kNullCode) s = (s + 1) & mask;
    shard.slots[s] = code;
  }
}

}  // namespace lakefuzz
