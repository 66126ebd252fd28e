// EntityMatcher: the paper's downstream task (Sec 3.2, "Downstreaming Task
// Effectiveness").
//
// A blocking + pairwise-similarity + transitive-closure entity resolver run
// over an *integrated* table. Integration quality shows through directly:
// regular FD leaves one real-world entity fragmented across rows with
// conflicting surface forms, which the resolver must re-match (losing
// recall) or mis-matches (losing precision); Fuzzy FD hands it pre-merged,
// more complete rows.
#ifndef LAKEFUZZ_EM_ENTITY_MATCHER_H_
#define LAKEFUZZ_EM_ENTITY_MATCHER_H_

#include <memory>

#include "embedding/embedding_cache.h"
#include "fd/fd_tuple.h"
#include "table/table.h"

namespace lakefuzz {

struct EntityMatcherOptions {
  /// Minimum mean per-column similarity for two rows to match.
  double similarity_threshold = 0.8;
  /// Minimum number of columns where both rows are non-null; pairs with
  /// less shared evidence never match.
  size_t min_overlap_columns = 1;
  /// Embedding memo for cell similarity (cosine of the two normalized
  /// cells' vectors); when null, Jaro-Winkler on normalized strings is used.
  /// Callers build one per matcher (`std::make_shared<EmbeddingCache>(
  /// MakeModel(kind))`) or pass a LakeEngine's `embedding_cache()`.
  std::shared_ptr<const EmbeddingCache> embeddings;
  /// Token-blocking: candidate pairs must share one token key. Blocks
  /// larger than this are skipped (stop-token suppression).
  size_t max_block_size = 256;
};

/// Clusters the rows of an integrated table into entities.
class EntityMatcher {
 public:
  explicit EntityMatcher(EntityMatcherOptions options = EntityMatcherOptions());

  /// Returns clusters of row indices (transitive closure over matched
  /// pairs). Every row appears in exactly one cluster.
  std::vector<std::vector<size_t>> Cluster(const Table& table) const;

  /// Similarity of two rows in [0,1] (exposed for tests): mean similarity
  /// over columns where both are non-null, 0 when overlap is below
  /// min_overlap_columns.
  double RowSimilarity(const Table& table, size_t row_a, size_t row_b) const;

 private:
  EntityMatcherOptions options_;
};

/// Lifts row clusters to clusters of input-tuple TIDs using FD provenance:
/// the entity cluster of a row contains every input tuple merged into it.
/// This is the unit the benchmark evaluates on — it makes EM quality
/// comparable across integrations with different row granularity.
std::vector<std::vector<uint64_t>> ExpandClustersToTids(
    const std::vector<FdResultTuple>& rows,
    const std::vector<std::vector<size_t>>& row_clusters);

}  // namespace lakefuzz

#endif  // LAKEFUZZ_EM_ENTITY_MATCHER_H_
