// ValueDict: interning of cell values into dense integer codes.
//
// Full Disjunction only ever asks two questions of a cell: "is it null?" and
// "is it equal to that other cell?". Both are answered by a dictionary code:
// tuples become flat uint32 rows, the enumerator's merge/consistency loops
// compare integers instead of heap-backed Values, and posting-list keys are
// (column, code) integer pairs. Values are decoded back only when the final
// result tuples are materialized.
#ifndef LAKEFUZZ_FD_VALUE_DICT_H_
#define LAKEFUZZ_FD_VALUE_DICT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "table/value.h"

namespace lakefuzz {

/// Interns distinct non-null Values into uint32 codes. Code 0 is reserved
/// for null; non-null values get 1, 2, ... in first-intern order, so a fixed
/// intern sequence yields identical codes on every run. (Concurrent
/// interners — see below — may interleave allocations; codes stay dense and
/// session-consistent, but their numeric order then depends on scheduling.
/// Nothing downstream orders by code value: the FD core uses codes as
/// equality keys only and sorts results by TID sets / decoded Values.)
///
/// Thread safety: Intern / InternHashed / Find are safe to call
/// concurrently. The hash index is bucketed into independently locked
/// shards (selected by value hash), so concurrent cold interning — e.g.
/// several tables registering into one engine session while discovery
/// sketches them — contends only within a shard instead of serializing on
/// one dictionary mutex. A dictionary is neither copyable nor movable:
/// FD problems and concurrent encoders hold its address.
///
/// Decoded values live in append-only geometric buckets (bucket b holds
/// 1024·2^b slots), so the `const Value&` returned by Decode — and the
/// 64-bit content hash returned by HashOf — stay valid and lock-free no
/// matter how much the dictionary grows afterwards. Any thread may Decode /
/// HashOf codes it obtained through a happens-before edge (a completed
/// Intern on this thread, or codes handed over under a lock) concurrently
/// with further interning.
class ValueDict {
 public:
  static constexpr uint32_t kNullCode = 0;

  ValueDict();
  ~ValueDict();

  ValueDict(const ValueDict&) = delete;
  ValueDict& operator=(const ValueDict&) = delete;

  /// Interns `v`; nulls map to kNullCode without touching the table. When
  /// `inserted` is non-null it receives whether this call appended a new
  /// dictionary entry (false for nulls and repeat values).
  uint32_t Intern(const Value& v, bool* inserted = nullptr) {
    if (v.is_null()) {
      if (inserted != nullptr) *inserted = false;
      return kNullCode;
    }
    return InternHashed(v, v.Hash(), inserted);
  }

  /// Intern with a precomputed hash; `hash` must equal v.Hash() and `v` must
  /// be non-null.
  uint32_t InternHashed(const Value& v, uint64_t hash,
                        bool* inserted = nullptr);

  /// Move form: `v` is consumed only when a new entry is appended (repeat
  /// values leave it valid-but-unspecified). The catalog loader restores
  /// persisted values through this without re-copying string payloads.
  uint32_t InternHashed(Value&& v, uint64_t hash, bool* inserted = nullptr);

  /// Code of `v`: kNullCode when null or never interned.
  uint32_t Find(const Value& v) const;

  /// Value for a code returned by Intern; Decode(kNullCode) is null. The
  /// reference is stable across later Intern calls.
  const Value& Decode(uint32_t code) const {
    const size_t b = BucketOf(code);
    return buckets_[b].load(std::memory_order_acquire)[code - BucketBase(b)];
  }

  /// Content hash (== Decode(code).Hash()) of an interned code, read from
  /// the stable side table — no value re-hashing. HashOf(kNullCode) is 0.
  /// Same lock-free validity rules as Decode. This is what discovery
  /// MinHash sketches are built over: the hash depends only on the value's
  /// content, never on code assignment order, so sketches are deterministic
  /// across intern interleavings and thread counts.
  uint64_t HashOf(uint32_t code) const {
    const size_t b = BucketOf(code);
    return hash_buckets_[b].load(
        std::memory_order_acquire)[code - BucketBase(b)];
  }

  /// Distinct non-null values interned so far.
  size_t NumDistinct() const {
    return size_.load(std::memory_order_acquire) - 1;
  }

 private:
  // Bucket 0 holds 2^kBaseBits slots; bucket b holds 2^(kBaseBits+b). 22
  // buckets cover the full uint32 code space.
  static constexpr size_t kBaseBits = 10;
  static constexpr size_t kMaxBuckets = 33 - kBaseBits;
  // Independently locked hash-index shards (power of two, like
  // EmbeddingCache). Selected by high hash bits; in-shard probing uses the
  // low bits, so the two choices stay independent.
  static constexpr size_t kShards = 16;
  static constexpr size_t kInitialSlots = 16;  // per shard, power of two

  struct Shard {
    mutable std::mutex mu;
    /// Open-addressing table of codes; kNullCode = empty slot.
    std::vector<uint32_t> slots;
    size_t used = 0;  ///< codes stored in this shard
  };

  static size_t ShardOf(uint64_t hash) { return (hash >> 57) & (kShards - 1); }
  static size_t BucketOf(uint32_t code) {
    return 63 - static_cast<size_t>(
                    __builtin_clzll((static_cast<uint64_t>(code) >> kBaseBits) +
                                    1));
  }
  static size_t BucketBase(size_t b) {
    return ((size_t{1} << b) - 1) << kBaseBits;
  }
  static size_t BucketCapacity(size_t b) { return size_t{1} << (kBaseBits + b); }

  /// Allocates the next code and stores `v` + `hash` at it. Thread-safe
  /// against appends to other codes; the caller publishes the code through
  /// its shard table (or another happens-before edge) before readers use it.
  uint32_t Append(const Value& v, uint64_t hash);
  uint32_t Append(Value&& v, uint64_t hash);
  /// Ensures the storage bucket holding `code` exists (double-checked
  /// against alloc_mu_).
  void EnsureBucket(size_t b);

  void RehashShard(Shard& shard, size_t new_slot_count) const;

  /// code → value / hash, in geometric buckets; slot 0 = null. Pointers are
  /// published with release stores so concurrent Decode / HashOf never
  /// observe a half-initialized bucket.
  std::atomic<Value*> buckets_[kMaxBuckets];
  std::atomic<uint64_t*> hash_buckets_[kMaxBuckets];
  /// Values stored, including the null slot. fetch_add allocates codes.
  std::atomic<uint32_t> size_{1};
  std::mutex alloc_mu_;  ///< storage-bucket allocation
  Shard shards_[kShards];
};

}  // namespace lakefuzz

#endif  // LAKEFUZZ_FD_VALUE_DICT_H_
