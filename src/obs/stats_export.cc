#include "obs/stats_export.h"

#include "util/rss.h"

namespace lakefuzz {

double PeakRssMb() {
  return static_cast<double>(PeakRssBytes()) / (1 << 20);
}

std::vector<std::pair<std::string, double>> FdExecutionExtras(
    const FdStats& stats) {
  return {
      {"intra_tasks", static_cast<double>(stats.intra_tasks)},
      {"pool_tasks", static_cast<double>(stats.pool_tasks)},
      {"pool_busy_s", stats.pool_busy_seconds},
      {"pool_wait_s", stats.pool_wait_seconds},
      {"peak_rss_mb", PeakRssMb()},
  };
}

}  // namespace lakefuzz
