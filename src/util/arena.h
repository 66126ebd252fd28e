// Bump-pointer arena allocation for per-worker scratch state.
//
// The FD enumerator (and other per-task hot loops) used to allocate and
// free short-lived vectors — extension sets, flipped-column lists, dedup
// sets — once per search node, so the parallel paths spent their speedup in
// the allocator: every thread funneling through malloc/free on objects that
// live for microseconds. An ArenaAllocator replaces that churn with pointer
// bumps inside worker-private blocks: allocation is an add, deallocation is
// a Rewind to a mark taken at scope entry, and the blocks themselves are
// reused across tasks (Reset keeps capacity). Nothing here is thread-safe
// by design — one arena per worker lane, like FdScratch.
#ifndef LAKEFUZZ_UTIL_ARENA_H_
#define LAKEFUZZ_UTIL_ARENA_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace lakefuzz {

class ArenaAllocator {
 public:
  /// Position in the arena; allocations made after a mark are released by
  /// Rewind(mark). Marks must unwind LIFO (scope discipline).
  struct Mark {
    size_t block = 0;
    size_t used = 0;
  };

  explicit ArenaAllocator(size_t min_block_bytes = 1 << 16)
      : min_block_bytes_(min_block_bytes == 0 ? 1 : min_block_bytes) {}

  ArenaAllocator(ArenaAllocator&&) = default;
  ArenaAllocator& operator=(ArenaAllocator&&) = default;
  ArenaAllocator(const ArenaAllocator&) = delete;
  ArenaAllocator& operator=(const ArenaAllocator&) = delete;

  /// Bump-allocates `bytes` aligned to `align` (a power of two).
  void* Alloc(size_t bytes, size_t align = alignof(std::max_align_t)) {
    if (current_ < blocks_.size()) {
      Block& b = blocks_[current_];
      size_t aligned = AlignUp(b.used, align);
      if (aligned + bytes <= b.cap) {
        b.used = aligned + bytes;
        BumpPeak();
        return b.data.get() + aligned;
      }
      // Try the already-reserved successor blocks before growing.
      while (current_ + 1 < blocks_.size()) {
        ++current_;
        Block& n = blocks_[current_];
        n.used = 0;
        if (bytes <= n.cap) {
          n.used = bytes;
          BumpPeak();
          return n.data.get();
        }
      }
    }
    return AllocSlow(bytes, align);
  }

  /// Typed array of `n` (uninitialized; T must be trivially destructible —
  /// Rewind never runs destructors).
  template <typename T>
  T* AllocArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is released without destructor calls");
    return static_cast<T*>(Alloc(n * sizeof(T), alignof(T)));
  }

  Mark mark() const {
    if (blocks_.empty()) return Mark{};
    return Mark{current_, blocks_[current_].used};
  }

  /// Releases everything allocated after `m`. Blocks stay reserved.
  void Rewind(Mark m) {
    if (blocks_.empty()) return;
    for (size_t i = m.block + 1; i <= current_ && i < blocks_.size(); ++i) {
      blocks_[i].used = 0;
    }
    current_ = m.block;
    blocks_[current_].used = m.used;
  }

  /// Releases every allocation but keeps the reserved blocks for reuse.
  void Reset() { Rewind(Mark{}); }

  /// True when [p, p + old_bytes) is the most recent allocation and the
  /// current block can absorb `new_bytes` in place — the grow-in-place path
  /// ArenaVector uses so repeated push_back does not leak dead copies.
  bool TryExtend(const void* p, size_t old_bytes, size_t new_bytes) {
    if (blocks_.empty() || new_bytes < old_bytes) return false;
    Block& b = blocks_[current_];
    const char* end = static_cast<const char*>(p) + old_bytes;
    if (end != b.data.get() + b.used) return false;
    const size_t start = b.used - old_bytes;
    if (start + new_bytes > b.cap) return false;
    b.used = start + new_bytes;
    BumpPeak();
    return true;
  }

  /// Total capacity of reserved blocks (memory held from the system).
  size_t bytes_reserved() const {
    size_t total = 0;
    for (const Block& b : blocks_) total += b.cap;
    return total;
  }

  /// High-water mark of live bytes across the arena's lifetime.
  size_t peak_bytes() const { return peak_bytes_; }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t cap = 0;
    size_t used = 0;
  };

  static size_t AlignUp(size_t n, size_t align) {
    return (n + align - 1) & ~(align - 1);
  }

  void BumpPeak() {
    size_t live = 0;
    for (size_t i = 0; i <= current_ && i < blocks_.size(); ++i) {
      live += blocks_[i].used;
    }
    if (live > peak_bytes_) peak_bytes_ = live;
  }

  void* AllocSlow(size_t bytes, size_t align) {
    // Grow geometrically so a deep recursion settles into one big block
    // instead of a long chain of small ones.
    size_t cap = min_block_bytes_;
    if (!blocks_.empty()) cap = blocks_.back().cap * 2;
    if (cap < bytes + align) cap = bytes + align;
    Block b;
    b.data = std::make_unique<char[]>(cap);
    b.cap = cap;
    blocks_.push_back(std::move(b));
    current_ = blocks_.size() - 1;
    Block& nb = blocks_[current_];
    size_t aligned =
        AlignUp(reinterpret_cast<uintptr_t>(nb.data.get()), align) -
        reinterpret_cast<uintptr_t>(nb.data.get());
    nb.used = aligned + bytes;
    BumpPeak();
    return nb.data.get() + aligned;
  }

  size_t min_block_bytes_;
  std::vector<Block> blocks_;
  size_t current_ = 0;
  size_t peak_bytes_ = 0;
};

/// RAII mark/rewind pair for scope-shaped arena usage.
class ArenaFrame {
 public:
  explicit ArenaFrame(ArenaAllocator& arena)
      : arena_(arena), mark_(arena.mark()) {}
  ~ArenaFrame() { arena_.Rewind(mark_); }
  ArenaFrame(const ArenaFrame&) = delete;
  ArenaFrame& operator=(const ArenaFrame&) = delete;

 private:
  ArenaAllocator& arena_;
  ArenaAllocator::Mark mark_;
};

/// Minimal growable array of trivially copyable T backed by an arena: its
/// storage is freed wholesale by the enclosing ArenaFrame/Rewind, never by
/// the vector itself. The enumerator hot path's per-node container.
template <typename T>
class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "ArenaVector relocates with memcpy and never destroys");

 public:
  explicit ArenaVector(ArenaAllocator& arena, size_t initial_capacity = 0)
      : arena_(arena) {
    if (initial_capacity > 0) Reserve(initial_capacity);
  }
  ArenaVector(const ArenaVector&) = delete;
  ArenaVector& operator=(const ArenaVector&) = delete;

  /// Out of line on purpose: inlined, the growth path bloats the FD
  /// enumerator's extension loops, which then ran ~10% slower per search
  /// node on IMDB-8k (one lane, min of 48 runs).
  __attribute__((noinline)) void push_back(const T& v) {
    if (size_ == cap_) Reserve(cap_ == 0 ? 8 : cap_ * 2);
    data_[size_++] = v;
  }
  void pop_back() { --size_; }
  void clear() { size_ = 0; }

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  T& back() { return data_[size_ - 1]; }

 private:
  void Reserve(size_t new_cap) {
    if (new_cap <= cap_) return;
    if (cap_ != 0 &&
        arena_.TryExtend(data_, cap_ * sizeof(T), new_cap * sizeof(T))) {
      cap_ = new_cap;
      return;
    }
    T* nd = arena_.AllocArray<T>(new_cap);
    if (size_ != 0) std::memcpy(nd, data_, size_ * sizeof(T));
    data_ = nd;  // old buffer stays dead in the arena until Rewind
    cap_ = new_cap;
  }

  ArenaAllocator& arena_;
  T* data_ = nullptr;
  size_t size_ = 0;
  size_t cap_ = 0;
};

/// C++17 STL allocator over an ArenaAllocator, for node-based containers
/// used as per-task scratch (e.g. the sketch builders' dedup sets).
/// deallocate is a no-op: memory returns at Rewind/Reset.
template <typename T>
class ArenaStlAllocator {
 public:
  using value_type = T;

  explicit ArenaStlAllocator(ArenaAllocator* arena) : arena_(arena) {}
  template <typename U>
  ArenaStlAllocator(const ArenaStlAllocator<U>& other)
      : arena_(other.arena()) {}

  T* allocate(size_t n) {
    return static_cast<T*>(arena_->Alloc(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, size_t) {}

  ArenaAllocator* arena() const { return arena_; }

  template <typename U>
  bool operator==(const ArenaStlAllocator<U>& other) const {
    return arena_ == other.arena();
  }
  template <typename U>
  bool operator!=(const ArenaStlAllocator<U>& other) const {
    return !(*this == other);
  }

 private:
  ArenaAllocator* arena_;
};

}  // namespace lakefuzz

#endif  // LAKEFUZZ_UTIL_ARENA_H_
