#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "util/hash.h"

namespace perfbench {

Hardware QueryCores() {
  Hardware hw;
  hw.nproc = std::thread::hardware_concurrency();
  hw.cores_granted = hw.nproc;
#if defined(__linux__)
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    hw.cores_granted = static_cast<size_t>(CPU_COUNT(&mask));
  }
#endif
  return hw;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = static_cast<size_t>(std::ceil(pos));
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - std::floor(pos));
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

double TailPercentile(size_t samples) {
  return static_cast<double>(samples) * 0.1 >= 10.0 ? 90.0 : 50.0;
}

double SlicedQuantile(const std::vector<double>& ms,
                      const std::vector<double>& done_s, double q) {
  if (ms.empty()) return 0.0;
  std::vector<size_t> order(ms.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return done_s[a] < done_s[b]; });
  const size_t n = ms.size();
  const size_t slices = std::min(kSlices, n);
  std::vector<double> per_slice;
  for (size_t k = 0; k < slices; ++k) {
    std::vector<double> slice;
    for (size_t i = k * n / slices; i < (k + 1) * n / slices; ++i) {
      slice.push_back(ms[order[i]]);
    }
    per_slice.push_back(Quantile(std::move(slice), q));
  }
  return Median(std::move(per_slice));
}

namespace {

/// Resets the kernel's resident-set high-water mark to the current RSS.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// VmHWM of this process in bytes (0 when unavailable).
size_t PeakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<size_t>(std::stoull(line.substr(6))) * 1024;
    }
  }
  return 0;
}

}  // namespace

uint64_t TableDigest(const lakefuzz::Table& table) {
  uint64_t h = lakefuzz::Fnv1a64("perfbench-digest");
  for (const auto& field : table.schema().fields()) {
    h = lakefuzz::HashCombine(h, lakefuzz::Fnv1a64(field.name));
  }
  h = lakefuzz::HashCombine(h, table.NumRows());
  for (size_t r = 0; r < table.NumRows(); ++r) {
    for (size_t c = 0; c < table.NumColumns(); ++c) {
      h = lakefuzz::HashCombine(h, table.At(r, c).Hash());
    }
  }
  return h;
}

void Recorder::Merge(const Recorder& other) {
  for (const auto& [kind, samples] : other.ms) {
    auto& dst = ms[kind];
    dst.insert(dst.end(), samples.begin(), samples.end());
  }
  for (const auto& [kind, times] : other.done_s) {
    auto& dst = done_s[kind];
    dst.insert(dst.end(), times.begin(), times.end());
  }
  attempted += other.attempted;
  failed += other.failed;
}

Recorder RunClosedLoop(
    size_t clients, double seconds,
    const std::function<void(size_t, uint64_t, Recorder*)>& op,
    double* elapsed_s, uint64_t round) {
  std::vector<Recorder> per_client(clients);
  if (!ResetPeakRss()) {
    std::fprintf(stderr,
                 "perfbench: cannot reset VmHWM; peak_rss_mb covers the "
                 "whole process\n");
  }
  const auto start = Clock::now();
  for (Recorder& rec : per_client) rec.origin = start;
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Recorder* rec = &per_client[c];
      for (uint64_t it = 0; Clock::now() < deadline || it % round != 0;
           ++it) {
        op(c, it, rec);
      }
    });
  }
  for (auto& t : threads) t.join();
  *elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  Recorder merged;
  for (const auto& rec : per_client) merged.Merge(rec);
  merged.max_rss_bytes = PeakRssBytes();
  return merged;
}

void AddEndToEnd(const Recorder& rec, double elapsed_s, double setup_s,
                 RunReport* report) {
  static const std::vector<double> kNone;
  auto find = [&](const std::map<std::string, std::vector<double>>& by_kind)
      -> const std::vector<double>& {
    auto it = by_kind.find("integrate");
    return it == by_kind.end() ? kNone : it->second;
  };
  const std::vector<double>& integrate = find(rec.ms);
  const std::vector<double>& integrate_done = find(rec.done_s);
  const double tail_p = TailPercentile(integrate.size());
  const uint64_t completed = rec.attempted - rec.failed;
  report->attempted = rec.attempted;
  report->failed = rec.failed;
  report->metrics.push_back({"setup_s", setup_s, "s"});
  report->metrics.push_back({"integrate_p50_ms", Median(integrate), "ms"});
  report->metrics.push_back(
      {"integrate_tail_ms",
       SlicedQuantile(integrate, integrate_done, tail_p / 100), "ms"});
  report->metrics.push_back(
      {"throughput_rps",
       elapsed_s > 0 ? static_cast<double>(completed) / elapsed_s : 0.0,
       "1/s"});
  report->metrics.push_back(
      {"peak_rss_mb", static_cast<double>(rec.max_rss_bytes) / (1 << 20),
       "MB"});
  report->info.push_back({"integrate_tail_percentile", tail_p, "p"});
  report->info.push_back(
      {"integrate_samples", static_cast<double>(integrate.size()), "count"});
  report->info.push_back(
      {"window_tail_ms", Quantile(integrate, tail_p / 100), "ms"});
  report->info.push_back(
      {"fail_ratio",
       rec.attempted > 0 ? static_cast<double>(rec.failed) /
                               static_cast<double>(rec.attempted)
                         : 0.0,
       "ratio"});
  report->info.push_back({"window_s", elapsed_s, "s"});
}

}  // namespace perfbench
