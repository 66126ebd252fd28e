// FuzzyFullDisjunction: the paper's end-to-end operator.
//
// Pipeline (paper Sec 2): for every universal column fed by two or more
// tables, run the ValueMatcher over its aligning columns, rewrite every
// matched value to its group representative, then compute the ordinary
// equi-join Full Disjunction over the rewritten tables and decode the
// result in batches. Regular FD (the ALITE baseline) is the same pipeline
// with match and rewrite skipped, so both sides of the paper's comparisons
// share one code path and one executor.
//
// The pipeline runs on encoded tables (fd/session_dict.h): the matcher
// reads each aligning column's distinct values from its codes, the rewrite
// is a code→code remap per touched column (no table is copied), and the FD
// build gathers the remapped code columns. A LakeEngine passes its
// registry's records; standalone callers encode with EncodeTables first.
// Options carry the session dictionary, an optional session ThreadPool and
// a RequestContext (cancel + deadline + resource budget, honored at matcher
// merge rounds, per FD component, inside the enumerator, and between
// batches; plus the stage ledger and progress callback every stage reports
// to).
#ifndef LAKEFUZZ_CORE_FUZZY_FD_H_
#define LAKEFUZZ_CORE_FUZZY_FD_H_

#include <functional>

#include "core/value_matcher.h"
#include "fd/full_disjunction.h"
#include "fd/session_dict.h"
#include "util/request_context.h"
#include "util/result.h"

namespace lakefuzz {

struct FuzzyFdOptions {
  ValueMatcherOptions matcher;
  FdOptions fd;
  /// Externally owned worker pool (LakeEngine's session pool), the
  /// pipeline's one parallelism switch: the FD executor and the batched
  /// decode run on it, and so does the matcher unless `matcher.pool` is
  /// already set. Null runs every stage inline. Not owned.
  ThreadPool* pool = nullptr;
  /// Required: the dictionary the input tables were encoded into (the
  /// LakeEngine's session dictionary, or the caller's for EncodeTables).
  /// Values are decoded through it; the pipeline never interns. Null fails
  /// with kInvalidArgument. Not owned; must outlive every run.
  const SessionDict* session_dict = nullptr;
  /// Request lifecycle: cancel token, deadline, resource budget, and the
  /// truncate-vs-fail policy; the matcher polls the same context. A fired
  /// token surfaces as Status::Cancelled, an expired deadline as
  /// Status::DeadlineExceeded, from the nearest checkpoint — unless
  /// BudgetPolicy::kTruncate turns the latter into a partial result with a
  /// populated FuzzyFdReport::truncation. Stages time themselves into
  /// `context.ledger` (the report's own ledger when unset) and fire
  /// `context.progress` on the calling thread: kMatch counts universal
  /// columns, the FD stages report (0,1) on entry and (1,1) on completion.
  RequestContext context;
};

/// Stage timings and counters for the efficiency experiments (Fig. 3) and
/// engine observability. One report covers every stage of a request, so
/// total_seconds() is the end-to-end pipeline time.
struct FuzzyFdReport {
  /// Wall time per stage (stages.seconds(Stage::kMatch), ...). On the
  /// engine path it is the request's whole ledger, admission wait, discovery
  /// and alignment included; a bare pipeline run records only its own
  /// stages.
  StageLedger stages;
  size_t aligned_sets_matched = 0;
  size_t values_rewritten = 0;
  ValueMatchStats match_stats;
  FdStats fd_stats;
  /// Request-level degradation report (BudgetPolicy::kTruncate): folds the
  /// FD executor's fd_stats.truncation together with match-stage and
  /// emit-stage cuts. truncated == false means the result is complete.
  Truncation truncation;

  /// End-to-end wall time across all stages (align + match + rewrite + FD).
  double total_seconds() const {
    return stages.seconds(Stage::kAlign) + stages.seconds(Stage::kMatch) +
           stages.seconds(Stage::kRewrite) + stages.seconds(Stage::kFd);
  }
};

/// Receives one decoded result batch. The callee may move tuples out of the
/// vector, which is refilled for the next batch. Returning a non-OK status
/// aborts the run and propagates the status to the caller.
using FdBatchFn = std::function<Status(std::vector<FdResultTuple>* batch)>;

class FuzzyFullDisjunction {
 public:
  explicit FuzzyFullDisjunction(FuzzyFdOptions options)
      : options_(std::move(options)) {}

  /// Value matching + value rewriting only (no FD); exposed for tests and
  /// for inspecting the consistent tables (Fig. 2 bottom-left): each table
  /// decoded from its remapped code columns.
  Result<std::vector<Table>> RewriteTables(const EncodedTables& tables,
                                           const AlignedSchema& aligned,
                                           FuzzyFdReport* report) const;

  /// The pipeline. With `fuzzy` set: match → rewrite → FD; without it,
  /// match and rewrite are skipped (regular FD). Result tuples are decoded
  /// on the pool in windows of at most `batch_rows` (the final batch may be
  /// smaller) and handed to `emit` in TID-list order, so the decoded
  /// result set is never materialized as a whole. Provenance TIDs are global
  /// outer-union ids: table order, then row order. Returns the number of
  /// tuples emitted. Cancellation is additionally polled between batches.
  Result<size_t> RunToBatches(const EncodedTables& tables,
                              const AlignedSchema& aligned, bool fuzzy,
                              size_t batch_rows, const FdBatchFn& emit,
                              FuzzyFdReport* report = nullptr) const;

  /// The pipeline collected into one FdResult (stats = the report's
  /// fd_stats).
  Result<FdResult> RunToTuples(const EncodedTables& tables,
                               const AlignedSchema& aligned, bool fuzzy,
                               FuzzyFdReport* report = nullptr) const;

 private:
  FuzzyFdOptions options_;
};

}  // namespace lakefuzz

#endif  // LAKEFUZZ_CORE_FUZZY_FD_H_
