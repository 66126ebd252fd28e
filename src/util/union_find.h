// Union-find (disjoint set) used by the FD join-graph index.
//
// AtomicUnionFind is lock-free (CAS on parent pointers) with union by
// minimum index, so posting-list shards can merge concurrently. Links always
// point from larger to smaller index, so parent chains strictly decrease (no
// cycles under any interleaving) and the final root of every component is
// its smallest member — the partition is deterministic regardless of thread
// schedule.
#ifndef LAKEFUZZ_UTIL_UNION_FIND_H_
#define LAKEFUZZ_UTIL_UNION_FIND_H_

#include <atomic>
#include <cstdint>
#include <vector>

namespace lakefuzz {

/// Concurrent disjoint-set forest. Safe for parallel Union/Find from many
/// threads (Anderson & Woll style: CAS-published parent links, path halving).
class AtomicUnionFind {
 public:
  explicit AtomicUnionFind(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) {
      parent_[i].store(static_cast<uint32_t>(i), std::memory_order_relaxed);
    }
  }

  uint32_t Find(uint32_t x) {
    while (true) {
      uint32_t p = parent_[x].load(std::memory_order_relaxed);
      if (p == x) return x;
      uint32_t gp = parent_[p].load(std::memory_order_relaxed);
      if (gp == p) return p;
      // Path halving; a lost race leaves a longer (still correct) path.
      parent_[x].compare_exchange_weak(p, gp, std::memory_order_relaxed);
      x = gp;
    }
  }

  void Union(uint32_t a, uint32_t b) {
    while (true) {
      a = Find(a);
      b = Find(b);
      if (a == b) return;
      if (a > b) std::swap(a, b);  // larger index links under smaller
      uint32_t expected = b;
      if (parent_[b].compare_exchange_strong(expected, a,
                                             std::memory_order_acq_rel)) {
        return;
      }
      // b was re-parented concurrently; retry from the new roots. Linking a
      // stale `a` is harmless: parent links only ever decrease, so chains
      // stay acyclic and set membership is preserved.
    }
  }

  size_t size() const { return parent_.size(); }

 private:
  std::vector<std::atomic<uint32_t>> parent_;
};

}  // namespace lakefuzz

#endif  // LAKEFUZZ_UTIL_UNION_FIND_H_
