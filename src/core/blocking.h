// Candidate blocking for large value-matching instances.
//
// A dense |A|×|B| cost matrix is quadratic in the column sizes; above a size
// budget the matcher switches to candidate generation: value pairs are
// considered only when they share a blocking key. Keys are chosen so that
// every signal the distance function can fire on has a key:
//   * normalized character 3-grams  → surface similarity (typos, casing)
//   * knowledge-base concept id     → semantic aliases ("CA" / "Canada")
//   * initials / acronym key        → "US" / "United States"
// Pairs sharing no key would be far in every distance we use, so pruning
// them is safe in practice (and is ablated in bench_ablation_engineering).
#ifndef LAKEFUZZ_CORE_BLOCKING_H_
#define LAKEFUZZ_CORE_BLOCKING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "embedding/knowledge_base.h"

namespace lakefuzz {

struct BlockingOptions {
  /// Knowledge base for concept keys; nullptr disables semantic keys.
  std::shared_ptr<const KnowledgeBase> knowledge_base;
};

/// Generates candidate index pairs (i into `left`, j into `right`).
/// Deduplicated, sorted. Pairs of byte-identical strings are included
/// (callers usually resolve those in an exact pre-pass first).
std::vector<std::pair<size_t, size_t>> GenerateCandidates(
    const std::vector<std::string>& left,
    const std::vector<std::string>& right, const BlockingOptions& options);

}  // namespace lakefuzz

#endif  // LAKEFUZZ_CORE_BLOCKING_H_
