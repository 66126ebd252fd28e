#include "obs/stats_export.h"

#include "util/rss.h"

namespace lakefuzz {

double PeakRssMb() {
  return static_cast<double>(PeakRssBytes()) / (1 << 20);
}

std::vector<std::pair<std::string, double>> FdExecutionExtras(
    const FdStats& stats) {
  const FdTaskProfile& prof = stats.task_profile;
  const double tasks_d =
      prof.tasks > 0 ? static_cast<double>(prof.tasks) : 1.0;
  return {
      {"intra_tasks", static_cast<double>(stats.intra_tasks)},
      {"merge_s", static_cast<double>(prof.merge_ns) * 1e-9},
      {"task_nodes_mean", static_cast<double>(prof.nodes_sum) / tasks_d},
      {"task_nodes_min", static_cast<double>(prof.nodes_min)},
      {"task_nodes_max", static_cast<double>(prof.nodes_max)},
      {"task_busy_s", static_cast<double>(prof.busy_ns) * 1e-9},
      {"task_replay_s", static_cast<double>(prof.replay_ns) * 1e-9},
      {"worker_wait_s", static_cast<double>(prof.wait_ns) * 1e-9},
      {"pool_tasks", static_cast<double>(stats.pool_tasks)},
      {"pool_busy_s", stats.pool_busy_seconds},
      {"pool_wait_s", stats.pool_wait_seconds},
      {"arena_peak_bytes", static_cast<double>(stats.arena_peak_bytes)},
      {"peak_rss_mb", PeakRssMb()},
  };
}

}  // namespace lakefuzz
