// Tests for src/util: Status/Result, strings, hashing, RNG, flags, pool.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <numeric>

#include "util/flags.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/str.h"
#include "util/thread_pool.h"

namespace lakefuzz {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad column");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad column");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad column");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

Status FailsThenPropagates() {
  LAKEFUZZ_RETURN_IF_ERROR(Status::IoError("disk on fire"));
  return Status::OK();  // unreachable
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  EXPECT_EQ(FailsThenPropagates().code(), StatusCode::kIoError);
}

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nothing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "payload");
}

Result<int> DoubleOrFail(Result<int> in) {
  LAKEFUZZ_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnOnSuccess) {
  Result<int> r = DoubleOrFail(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  Result<int> r = DoubleOrFail(Status::Internal("boom"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------- Strings

TEST(StrTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
}

TEST(StrTest, SplitWhitespaceDropsEmpty) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StrTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Split(Join(parts, "|"), '|'), parts);
}

TEST(StrTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StrTest, CaseConversion) {
  EXPECT_EQ(ToLower("MiXeD 123"), "mixed 123");
  EXPECT_EQ(ToUpper("MiXeD 123"), "MIXED 123");
}

TEST(StrTest, CaseConversionLeavesUtf8Alone) {
  EXPECT_EQ(ToLower("Ça"), "Ça"[0] == 'C' ? "Ça" : ToLower("Ça"));
  // The two-byte UTF-8 sequence for 'Ç' must pass through unchanged.
  std::string s = "\xC3\x87x";
  EXPECT_EQ(ToLower(s), "\xC3\x87x");
}

TEST(StrTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("prefix_rest", "prefix"));
  EXPECT_FALSE(StartsWith("pre", "prefix"));
  EXPECT_TRUE(EndsWith("file.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", ".csv"));
}

TEST(StrTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("Berlin", "bErLiN"));
  EXPECT_FALSE(EqualsIgnoreCase("Berlin", "Berlin "));
}

TEST(StrTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StrTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(ReplaceAll("none here", "xyz", "q"), "none here");
  EXPECT_EQ(ReplaceAll("abab", "ab", "ba"), "baba");
}

TEST(StrTest, WithThousandsSep) {
  EXPECT_EQ(WithThousandsSep(0), "0");
  EXPECT_EQ(WithThousandsSep(999), "999");
  EXPECT_EQ(WithThousandsSep(1000), "1,000");
  EXPECT_EQ(WithThousandsSep(1234567), "1,234,567");
  EXPECT_EQ(WithThousandsSep(-1234567), "-1,234,567");
}

// ---------------------------------------------------------------- Hashing

TEST(HashTest, Fnv1aIsDeterministicAndSeedSensitive) {
  EXPECT_EQ(Fnv1a64("abc"), Fnv1a64("abc"));
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("abd"));
  EXPECT_NE(Fnv1a64("abc", 1), Fnv1a64("abc", 2));
}

TEST(HashTest, Mix64Avalanches) {
  // Flipping one input bit should flip roughly half the output bits.
  uint64_t a = Mix64(0x1234);
  uint64_t b = Mix64(0x1235);
  int diff = __builtin_popcountll(a ^ b);
  EXPECT_GT(diff, 16);
  EXPECT_LT(diff, 48);
}

TEST(HashTest, HashCombineOrderDependent) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(HashTest, SaltedHashVariesWithSalt) {
  EXPECT_NE(SaltedHash("x", 1), SaltedHash("x", 2));
  EXPECT_EQ(SaltedHash("x", 7), SaltedHash("x", 7));
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformWithinBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(10);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 3000; ++i) ++counts[rng.Uniform(5)];
  EXPECT_EQ(counts.size(), 5u);
  for (const auto& [v, c] : counts) {
    EXPECT_GT(c, 400) << "value " << v;  // each ≈600 expected
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformRealInUnitInterval) {
  Rng rng(12);
  double sum = 0;
  for (int i = 0; i < 5000; ++i) {
    double v = rng.UniformReal();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 5000.0, 0.5, 0.03);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(14);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ZipfSkewsTowardSmallRanks) {
  Rng rng(15);
  size_t low = 0;
  for (int i = 0; i < 2000; ++i) {
    if (rng.Zipf(100, 1.2) < 10) ++low;
  }
  // Rank 0-9 should absorb well over a uniform 10% share.
  EXPECT_GT(low, 1000u);
}

TEST(RngTest, ZipfZeroExponentIsUniformish) {
  Rng rng(16);
  size_t low = 0;
  for (int i = 0; i < 2000; ++i) {
    if (rng.Zipf(100, 0.0) < 10) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / 2000.0, 0.1, 0.04);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto original = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, original);  // astronomically unlikely to match
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, SampleDistinctAndBounded) {
  Rng rng(18);
  auto s = rng.Sample(20, 8);
  EXPECT_EQ(s.size(), 8u);
  std::sort(s.begin(), s.end());
  EXPECT_EQ(std::unique(s.begin(), s.end()), s.end());
  for (size_t i : s) EXPECT_LT(i, 20u);
  EXPECT_EQ(rng.Sample(3, 10).size(), 3u);  // k clamped to n
}

TEST(RngTest, PickWeightedRespectsWeights) {
  Rng rng(19);
  std::vector<double> w{0.0, 1.0, 9.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 5000; ++i) ++counts[rng.PickWeighted(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[2], counts[1] * 5);
}

TEST(RngTest, ForkDecorrelates) {
  Rng a(20);
  Rng b = a.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, AlphaStringLowercase) {
  Rng rng(21);
  std::string s = rng.AlphaString(64);
  EXPECT_EQ(s.size(), 64u);
  for (char c : s) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

// ---------------------------------------------------------------- Flags

TEST(FlagsTest, ParsesKeyEqualsValue) {
  const char* argv[] = {"prog", "--alpha=1", "--name=fd"};
  Flags f = Flags::Parse(3, argv);
  EXPECT_EQ(f.GetInt("alpha", 0), 1);
  EXPECT_EQ(f.GetString("name", ""), "fd");
}

TEST(FlagsTest, ParsesKeySpaceValue) {
  const char* argv[] = {"prog", "--threshold", "0.7"};
  Flags f = Flags::Parse(3, argv);
  EXPECT_DOUBLE_EQ(f.GetDouble("threshold", 0), 0.7);
}

TEST(FlagsTest, BareSwitchIsTrue) {
  const char* argv[] = {"prog", "--verbose"};
  Flags f = Flags::Parse(2, argv);
  EXPECT_TRUE(f.Has("verbose"));
  EXPECT_TRUE(f.GetBool("verbose", false));
}

TEST(FlagsTest, BoolParsesSpellings) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=YES", "--d=off"};
  Flags f = Flags::Parse(5, argv);
  EXPECT_TRUE(f.GetBool("a", false));
  EXPECT_FALSE(f.GetBool("b", true));
  EXPECT_TRUE(f.GetBool("c", false));
  EXPECT_FALSE(f.GetBool("d", true));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags f = Flags::Parse(1, argv);
  EXPECT_EQ(f.GetInt("missing", 42), 42);
  EXPECT_EQ(f.GetString("missing", "d"), "d");
  EXPECT_FALSE(f.Has("missing"));
}

TEST(FlagsTest, PositionalCollected) {
  const char* argv[] = {"prog", "input.csv", "--k=1", "out.csv"};
  Flags f = Flags::Parse(4, argv);
  EXPECT_EQ(f.positional(),
            (std::vector<std::string>{"input.csv", "out.csv"}));
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, SubmitReturnsFutureResult) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { return 7 * 6; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, ManyTasksDrainBeforeDestruction) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 200; ++i) {
      futures.push_back(pool.Submit([&count] { count.fetch_add(1); }));
    }
    for (auto& f : futures) f.get();
  }
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  EXPECT_EQ(pool.Submit([] { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, ParallelForWithLaneRunsOneItemPerLaneAtATime) {
  // FD enumeration shares one scratch per lane without locks, which is safe
  // only while no two items run on one lane at once. Many tiny items of
  // uneven length make the workers race for the shared index.
  ThreadPool pool(4);
  const size_t n = 4096;
  std::vector<std::atomic<bool>> busy(pool.num_threads());
  std::vector<std::atomic<int>> hits(n);
  std::atomic<int> bad_lanes{0};
  std::atomic<int> overlaps{0};
  pool.ParallelForWithLane(n, [&](size_t lane, size_t i) {
    hits[i].fetch_add(1);
    if (lane >= busy.size()) {
      bad_lanes.fetch_add(1);
      return;
    }
    if (busy[lane].exchange(true)) overlaps.fetch_add(1);
    volatile uint64_t x = 0;
    for (size_t k = 0; k < 64 + i % 97; ++k) x += k;
    busy[lane].store(false);
  });
  EXPECT_EQ(bad_lanes.load(), 0);
  EXPECT_EQ(overlaps.load(), 0);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
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

// ---------------------------------------------------------------- Stopwatch

TEST(StopwatchTest, MeasuresNonNegativeMonotonicTime) {
  Stopwatch w;
  double t1 = w.ElapsedSeconds();
  double t2 = w.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  w.Restart();
  EXPECT_GE(w.ElapsedSeconds(), 0.0);
}

// ---------------------------------------------------------------- Logging

TEST(LoggingTest, LevelFilterRoundTrips) {
  LogLevel old_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  LogInfo("suppressed");  // must not crash
  SetLogLevel(old_level);
}

}  // namespace
}  // namespace lakefuzz
