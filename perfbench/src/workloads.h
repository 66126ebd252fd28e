// The three perfbench workloads and the helpers they share. Every workload
// is a closed loop: each client sends its next request when the previous
// one returned, because integration callers wait for their result.
//
//   imdb_fd     1 client,  engine with 2 workers (paper Fig. 3 setting)
//   fuzzy_lake  1 client,  engine with 2 workers (EM-style groups)
//   lake_churn  1 client,  engine with 2 workers (register / discover /
//               integrate / unregister / checkpoint against a catalog)
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "spans.h"
#include "util/status.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  size_t clients;
  size_t workers;
  lakefuzz::Status (*run)(const RunConfig&, RunReport*);
};

/// All workloads, in the order BENCHMARK.json lists them.
const std::vector<WorkloadSpec>& Workloads();

lakefuzz::Status RunImdbFd(const RunConfig& config, RunReport* report);
lakefuzz::Status RunFuzzyLake(const RunConfig& config, RunReport* report);
lakefuzz::Status RunLakeChurn(const RunConfig& config, RunReport* report);

/// setup_s is the median of repeated set-ups: at least kMinSetupReps, and
/// more while the set-ups so far took under kSetupBudgetS (at most
/// kMaxSetupReps), so fast set-ups get enough repetitions to be steady.
inline constexpr size_t kMinSetupReps = 5;
inline constexpr size_t kMaxSetupReps = 40;
inline constexpr double kSetupBudgetS = 3.0;

/// Runs `setup` under the repetition rule above, calling `teardown`
/// (untimed) between repetitions; returns the median seconds. The state the
/// last repetition built is what the run then measures.
lakefuzz::Status MeasureSetup(const std::function<void()>& teardown,
                              const std::function<lakefuzz::Status()>& setup,
                              double* median_s);

/// trace.layer_gap_pct, |untraced − traced| / untraced request time, must
/// stay within this many percent or the run fails its check. Traced and
/// untraced requests interleave on the same engine (lake_churn: two engines
/// in lockstep), so the gap is the engine's time outside its stage spans
/// plus the tracer's own cost plus what the neighbours' load does to two
/// sets of medians taken side by side.
inline constexpr double kGapTolerancePct = 15.0;

/// A LakeEngine with `workers` session threads (1 = serial, no pool).
std::unique_ptr<lakefuzz::LakeEngine> MakeEngine(size_t workers);

/// Adds the work counters of one traced engine call to `log`: the align
/// span's cache outcome from `tracer`, and the matcher, assignment,
/// embedding and FD counters from `report` (nullptr for calls without one).
void CountEngineWork(const lakefuzz::Tracer& tracer,
                     const lakefuzz::FuzzyFdReport* report, SpanLog* log);

/// Fills every per-layer metric from the traced run. `request_logs` hold
/// one "request" tree per traced request; `setup_log` holds spans recorded
/// outside requests (catalog open). `engine_ms` is the median untraced time
/// of the same unit of work, measured beside the traced requests, against
/// which trace.layer_gap_pct is computed and checked: a gap beyond
/// kGapTolerancePct counts as one failed check in `report`.
void AddPerLayer(const std::vector<const SpanLog*>& request_logs,
                 const SpanLog& setup_log, double engine_ms, size_t workers,
                 RunReport* report);

/// Writes the traced run's spans next to the result file.
void WriteSpans(const RunConfig& config,
                const std::vector<const SpanLog*>& request_logs,
                const SpanLog& setup_log, RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
