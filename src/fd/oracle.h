// NaiveFdOracle: brute-force Full Disjunction for tiny inputs.
//
// Directly materializes the definition — joins of ALL connected,
// join-consistent tuple subsets, then removal of duplicate and subsumed
// joins — with no maximality shortcuts, component decomposition, or
// pruning. It reads the input tables itself and shares no code with the
// production FD (no dictionary, problem, index or posting-list subsumption),
// so the two cannot agree on a shared bug. Exponential in the input size;
// exists solely as the ground truth the production implementation is
// property-tested against.
#ifndef LAKEFUZZ_FD_ORACLE_H_
#define LAKEFUZZ_FD_ORACLE_H_

#include <vector>

#include "fd/aligned_schema.h"
#include "fd/fd_tuple.h"
#include "table/table.h"
#include "util/result.h"

namespace lakefuzz {

/// Computes FD of `tables` under `aligned` by subset enumeration. TIDs
/// number the rows in table order, then row order — the production outer
/// union's numbering — and the output is sorted by TID list. Rejects an
/// invalid alignment and inputs of more than 20 rows (~1M subsets).
Result<std::vector<FdResultTuple>> NaiveFdOracle(
    const std::vector<Table>& tables, const AlignedSchema& aligned);

}  // namespace lakefuzz

#endif  // LAKEFUZZ_FD_ORACLE_H_
