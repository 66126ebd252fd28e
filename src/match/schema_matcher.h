// Holistic schema matching: ALITE's column-alignment stage.
//
// Data lake headers are unreliable, so columns are aligned by *content*:
// each column gets a pooled value-embedding signature (ColumnEmbedder), and
// signatures are clustered holistically across all tables of the integration
// set (Su et al., EDBT 2006 style), under the constraint that a cluster
// holds at most one column per table. Clusters become the universal columns
// of the AlignedSchema that Full Disjunction consumes.
//
// Alignment reads the records the pipeline reads: a column's signature
// pools its first `sample_size` distinct codes decoded through the session
// dictionary, i.e. its first distinct values by Value equality. Each renders
// as the session's interned copy, as in matching and the FD output, which
// differs from the table's own cell only for a Double zero of the other
// sign ("-0" vs "0"). Value embeddings are read through the EmbeddingCache
// the matcher is given (a LakeEngine passes its session memo), so
// signatures pool the memo's unit vectors: a custom model that is not
// prenormalized has each value normalized before pooling.
#ifndef LAKEFUZZ_MATCH_SCHEMA_MATCHER_H_
#define LAKEFUZZ_MATCH_SCHEMA_MATCHER_H_

#include <memory>

#include "embedding/column_embedder.h"
#include "fd/aligned_schema.h"
#include "fd/session_dict.h"
#include "fd/value_dict.h"
#include "util/result.h"

namespace lakefuzz {

struct SchemaMatcherOptions {
  /// Minimum cosine similarity for two column signatures to be merged.
  /// Calibrated so that code-vs-full-name columns of one domain align
  /// (pooled signatures agree through the knowledge-base component) while
  /// unrelated columns (near-orthogonal signatures) stay apart.
  double similarity_threshold = 0.30;
  ColumnEmbedderOptions embedder;
  /// Tie-break/assist weight for equal header names in [0,1]: added to the
  /// content similarity when headers match exactly (data lakes can't rely
  /// on headers, but when present and equal they are evidence).
  double header_bonus = 0.05;
};

/// Greedy constrained agglomerative clustering of column signatures.
class HolisticSchemaMatcher {
 public:
  HolisticSchemaMatcher(std::shared_ptr<const EmbeddingCache> embeddings,
                        SchemaMatcherOptions options = SchemaMatcherOptions());

  /// Aligns the integration set, encoded into `dict`, into an
  /// AlignedSchema. Universal column names are the most frequent header
  /// among each cluster's members (ties → first by table order),
  /// uniquified with numeric suffixes.
  Result<AlignedSchema> Align(const EncodedTables& tables,
                              const ValueDict& dict) const;

 private:
  std::shared_ptr<const EmbeddingCache> embeddings_;
  SchemaMatcherOptions options_;
};

}  // namespace lakefuzz

#endif  // LAKEFUZZ_MATCH_SCHEMA_MATCHER_H_
