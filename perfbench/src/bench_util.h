// Shared pieces of the perfbench program: run configuration, the result
// record every workload fills, latency statistics, output digests, and the
// closed-loop client runner.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "table/table.h"

namespace perfbench {

/// Command-line configuration of one benchmark run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// false: measured run (untraced engine, end-to-end metrics).
  /// true: traced run (per-layer metrics from engine and benchmark spans).
  bool trace = false;
  /// Self-check: flip one reference digest so the output check must fail.
  bool corrupt_reference = false;
  /// Working directory for generated CSVs and catalogs (removed at exit).
  std::string work_dir;
  /// Directory receiving the result file (and the span file when tracing).
  std::string out_dir;
};

/// One named, unit-tagged number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run produces. `metrics` become the JSON result line;
/// `info` is printed and saved to the result file only (workload-specific
/// figures such as pair_f1 or register_p50_ms).
struct RunReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> info;
  /// Free-form lines printed before the metrics (what ran, on what).
  std::vector<std::string> notes;
};

/// Scheduler-granted cores (sched_getaffinity) next to the machine's
/// hardware concurrency; the same probe bench/bench_common.h records.
struct Hardware {
  size_t nproc = 0;
  size_t cores_granted = 0;
};
Hardware QueryCores();

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Median of `samples` (0 when empty).
double Median(std::vector<double> samples);

/// q-quantile (q in [0,1]) by linear interpolation (0 when empty).
double Quantile(std::vector<double> samples, double q);

/// The tail percentile the benchmark reports: p90, the highest percentile
/// that keeps at least ten samples beyond it in every workload's window
/// (p99 swings by a fifth between identical runs on a shared 4-core box).
/// With fewer than 100 samples it falls back to p50 so ten samples still
/// lie beyond it.
double TailPercentile(size_t samples);

/// Output digest: column names and every cell's content hash, in row order.
/// The table name is excluded (it only labels the result).
uint64_t TableDigest(const lakefuzz::Table& table);

/// Per-client latency samples by operation kind, plus failure counts.
struct Recorder {
  std::map<std::string, std::vector<double>> ms;
  /// When each sample in `ms` completed, in seconds since `origin`.
  std::map<std::string, std::vector<double>> done_s;
  Clock::time_point origin = Clock::now();
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Peak resident set of the process during the window.
  size_t max_rss_bytes = 0;

  void Add(const std::string& kind, double millis, bool ok) {
    ++attempted;
    if (!ok) ++failed;
    ms[kind].push_back(millis);
    done_s[kind].push_back(
        std::chrono::duration<double>(Clock::now() - origin).count());
  }
  void Merge(const Recorder& other);
};

/// The tail is computed per slice: the window's samples are cut, in
/// completion order, into this many slices of equal sample count, and the
/// tail is the median over the slices of each slice's tail percentile. A
/// burst of host noise is exactly what lands in the top tenth of a window's
/// samples; one that covers fewer than half of the slices now leaves the
/// tail alone.
inline constexpr size_t kSlices = 10;

/// Median over the (at most kSlices) slices of each slice's q-quantile of
/// `ms`, the slices taken in the order of `done_s` (0 when empty).
double SlicedQuantile(const std::vector<double>& ms,
                      const std::vector<double>& done_s, double q);

/// Runs `clients` closed-loop client threads for `seconds`: each calls
/// `op(client, iteration, recorder)` back to back until the window ends
/// (the op in flight at the deadline completes) and its iteration count is
/// a multiple of `round`, so every client finishes whole request cycles.
/// Returns the merged samples and the window's wall time in `*elapsed_s`.
/// Recorder::max_rss_bytes is the process's resident-set high-water mark
/// over the window: the kernel's mark (VmHWM) is reset when the window opens
/// (writing 5 to /proc/self/clear_refs) and read when it closes, so memory
/// that lives only inside a request counts too.
Recorder RunClosedLoop(
    size_t clients, double seconds,
    const std::function<void(size_t, uint64_t, Recorder*)>& op,
    double* elapsed_s, uint64_t round = 1);

/// Milliseconds since `start`.
inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// The end-to-end metric block shared by every workload.
void AddEndToEnd(const Recorder& rec, double elapsed_s, double setup_s,
                 RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
