// Tests for the per-worker bump-pointer arena (util/arena.h) and the
// thread-pool execution counters (PoolStats): mark/rewind scope discipline,
// grow-in-place, block reuse across Reset, ArenaVector growth, and a
// many-tiny-tasks pool stress asserting arena reuse never aliases live data
// (the ASan job re-runs this under the allocator poisoners).
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <unordered_set>
#include <vector>

#include "util/arena.h"
#include "util/thread_pool.h"

namespace lakefuzz {
namespace {

TEST(ArenaTest, MarkRewindReleasesLifo) {
  ArenaAllocator arena(/*min_block_bytes=*/256);
  uint32_t* a = arena.AllocArray<uint32_t>(8);
  for (int i = 0; i < 8; ++i) a[i] = 100 + i;

  ArenaAllocator::Mark m = arena.mark();
  uint32_t* b = arena.AllocArray<uint32_t>(8);
  for (int i = 0; i < 8; ++i) b[i] = 200 + i;
  arena.Rewind(m);

  // The rewound region is reused; the allocation made before the mark is
  // untouched.
  uint32_t* c = arena.AllocArray<uint32_t>(8);
  EXPECT_EQ(c, b);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a[i], 100u + i);
}

TEST(ArenaTest, TryExtendGrowsOnlyTopAllocation) {
  ArenaAllocator arena(/*min_block_bytes=*/1024);
  uint32_t* top = arena.AllocArray<uint32_t>(4);
  EXPECT_TRUE(arena.TryExtend(top, 4 * sizeof(uint32_t),
                              8 * sizeof(uint32_t)));
  // A second allocation buries `top`; it can no longer grow in place.
  arena.AllocArray<uint32_t>(2);
  EXPECT_FALSE(arena.TryExtend(top, 8 * sizeof(uint32_t),
                               16 * sizeof(uint32_t)));
}

TEST(ArenaTest, ResetKeepsReservedBlocksAndPeak) {
  ArenaAllocator arena(/*min_block_bytes=*/128);
  for (int i = 0; i < 6; ++i) arena.AllocArray<char>(200);  // forces growth
  const size_t reserved = arena.bytes_reserved();
  const size_t peak = arena.peak_bytes();
  EXPECT_GE(reserved, 6u * 200u);
  EXPECT_GE(peak, 6u * 200u);

  arena.Reset();
  EXPECT_EQ(arena.bytes_reserved(), reserved);  // capacity retained
  arena.AllocArray<char>(64);
  EXPECT_EQ(arena.bytes_reserved(), reserved);  // ...and reused, not grown
  EXPECT_GE(arena.peak_bytes(), peak);          // high-water never shrinks
}

TEST(ArenaTest, ArenaVectorMatchesStdVector) {
  // Growth across many reallocations (in place and by copy) keeps exactly
  // the contents a std::vector holds for the same pushes.
  ArenaAllocator arena(/*min_block_bytes=*/256);
  ArenaVector<uint32_t> on(arena);
  std::vector<uint32_t> expected;
  for (uint32_t i = 0; i < 5000; ++i) {
    on.push_back(i * 2654435761u);
    expected.push_back(i * 2654435761u);
  }
  ASSERT_EQ(on.size(), expected.size());
  EXPECT_EQ(std::memcmp(on.data(), expected.data(),
                        on.size() * sizeof(uint32_t)),
            0);
  on.pop_back();
  expected.pop_back();
  EXPECT_EQ(on.back(), expected.back());
}

TEST(ArenaTest, InterleavedVectorsStayDisjoint) {
  // The FD hot-path shape: a long-lived vector (locally_excluded) grows
  // between per-iteration frames that allocate and rewind short-lived ones.
  // Growth of the long-lived vector must never clobber data the frames
  // wrote before it, and vice versa.
  ArenaAllocator arena(/*min_block_bytes=*/256);
  ArenaFrame outer(arena);
  ArenaVector<uint32_t> durable(arena);
  for (uint32_t round = 0; round < 300; ++round) {
    {
      ArenaFrame inner(arena);
      ArenaVector<uint32_t> scratch(arena);
      for (uint32_t i = 0; i < 17; ++i) scratch.push_back(~round);
    }
    durable.push_back(round);
  }
  for (uint32_t round = 0; round < 300; ++round) {
    ASSERT_EQ(durable[round], round) << "durable data clobbered";
  }
}

TEST(ArenaTest, StlAllocatorBacksNodeContainers) {
  ArenaAllocator arena;
  using Set = std::unordered_set<uint64_t, std::hash<uint64_t>,
                                 std::equal_to<uint64_t>,
                                 ArenaStlAllocator<uint64_t>>;
  {
    Set seen(0, std::hash<uint64_t>(), std::equal_to<uint64_t>(),
             ArenaStlAllocator<uint64_t>(&arena));
    for (uint64_t i = 0; i < 4000; ++i) seen.insert(i % 1024);
    EXPECT_EQ(seen.size(), 1024u);
  }
  EXPECT_GT(arena.peak_bytes(), 0u);
  arena.Reset();  // deallocate was a no-op; this is where memory returns
}

TEST(ArenaPoolStressTest, ManyTinyTasksNeverAliasLiveData) {
  // Per-lane arenas under the real pool, Reset between tasks exactly like
  // the FD worker loop: each task fills a lane-tagged pattern, then checks
  // every word it wrote. Any cross-task aliasing through the reused blocks
  // shows up as a pattern mismatch (and ASan catches stale pointers).
  ThreadPool pool(4);
  const size_t lanes = MaxLanes(&pool, /*n=*/4096);
  std::vector<ArenaAllocator> arenas(lanes);
  std::atomic<uint64_t> mismatches{0};
  pool.ParallelForWithLane(4096, [&](size_t lane, size_t task) {
    ArenaAllocator& arena = arenas[lane];
    arena.Reset();
    const uint32_t tag = static_cast<uint32_t>(task * 0x9e3779b9u + lane);
    ArenaVector<uint32_t> grown(arena);
    const size_t n = 1 + task % 97;  // vary size so blocks get re-cut
    for (size_t i = 0; i < n; ++i) {
      grown.push_back(tag + static_cast<uint32_t>(i));
      // Interleave a frame-scoped throwaway to churn the bump pointer.
      ArenaFrame frame(arena);
      uint32_t* tmp = arena.AllocArray<uint32_t>(1 + i % 13);
      tmp[0] = ~tag;
    }
    for (size_t i = 0; i < n; ++i) {
      if (grown[i] != tag + static_cast<uint32_t>(i)) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(PoolStatsTest, CountersGrowAndSnapshotSubtractIsolatesPhase) {
  ThreadPool pool(2);
  const PoolStats before = pool.stats();
  pool.ParallelFor(64, [](size_t) {
    volatile uint64_t x = 0;
    for (int i = 0; i < 20000; ++i) x += i;
  });
  const PoolStats delta = pool.stats() - before;
  // ParallelFor submits one task per worker share; every one executed and
  // spent measurable time.
  EXPECT_GT(delta.tasks, 0u);
  EXPECT_GT(delta.busy_ns, 0u);

  const PoolStats idle_before = pool.stats();
  const PoolStats idle_delta = pool.stats() - idle_before;
  EXPECT_EQ(idle_delta.tasks, 0u);
  EXPECT_EQ(idle_delta.busy_ns, 0u);
}

}  // namespace
}  // namespace lakefuzz
