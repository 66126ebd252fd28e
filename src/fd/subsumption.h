// Subsumption elimination: the final step of Full Disjunction.
//
// A result tuple is dropped when another result carries all its information
// (agrees on its non-null values and has at least as many). Duplicates are
// collapsed to the copy with the most complete provenance, then the
// lexicographically smallest, so output is deterministic.
#ifndef LAKEFUZZ_FD_SUBSUMPTION_H_
#define LAKEFUZZ_FD_SUBSUMPTION_H_

#include <vector>

#include "fd/fd_tuple.h"
#include "util/request_context.h"
#include "util/result.h"

namespace lakefuzz {

class ThreadPool;

/// Removes subsumed and duplicate tuples — the FD executors' final pass.
///
/// Complexity: near-linear via (column, code) posting lists — a tuple can
/// only be subsumed by one sharing its rarest non-null code — instead of
/// all-pairs comparison. Comparisons and posting keys are flat uint32
/// codes, and the posting-list bucketing plus the per-tuple subsumption
/// scans run on `pool` when provided (results are independent of the
/// thread count). Output is sorted by TID list, which is a total order
/// here: distinct surviving FD tuples never share a TID set.
///
/// When `ctx` is non-null its cancel token and deadline are polled at
/// amortized checkpoints inside every pass; a stop surfaces as
/// kCancelled / kDeadlineExceeded (subsumption has no partial output — the
/// caller decides whether that truncates the request).
Result<std::vector<FdCodeTuple>> EliminateSubsumedCodes(
    std::vector<FdCodeTuple> tuples, ThreadPool* pool = nullptr,
    const RequestContext* ctx = nullptr);

}  // namespace lakefuzz

#endif  // LAKEFUZZ_FD_SUBSUMPTION_H_
