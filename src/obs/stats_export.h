// One mapping from FD execution stats to named numbers.
//
// The FD executor fills FdStats (split ranges, pool counters, arena and
// RSS peaks); the engine's metrics registry and the benchmark JSON artifacts
// both report those numbers. Before this helper each bench binary hand-built
// its own key list and the engine wired fields separately, so the two could
// silently diverge. Now FdStats is the single source and this is the single
// field→name mapping: the bench `extra` keys below correspond 1:1 to the
// engine metrics of the same meaning (intra_tasks ↔
// lakefuzz_fd_intra_tasks_total, pool_busy_s ↔ lakefuzz_pool_busy_ns_total,
// peak_rss_mb ↔ lakefuzz_process_peak_rss_bytes, ...), differing only in
// unit.
#ifndef LAKEFUZZ_OBS_STATS_EXPORT_H_
#define LAKEFUZZ_OBS_STATS_EXPORT_H_

#include <string>
#include <utility>
#include <vector>

#include "fd/full_disjunction.h"

namespace lakefuzz {

/// Process peak RSS in MiB — the one rounding rule every artifact uses
/// (wraps util/rss.h's PeakRssBytes()).
double PeakRssMb();

/// The FD execution profile as ordered (key, value) pairs, ready for
/// BenchJsonWriter::AddFromStats `extra` (or any other flat export): the
/// split-range count, pool-level task count and busy vs. queue-wait time,
/// arena peak, and process peak RSS.
std::vector<std::pair<std::string, double>> FdExecutionExtras(
    const FdStats& stats);

}  // namespace lakefuzz

#endif  // LAKEFUZZ_OBS_STATS_EXPORT_H_
