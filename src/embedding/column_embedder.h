// ColumnEmbedder: column-level signatures for holistic schema matching.
//
// ALITE aligns columns by clustering column-level embeddings; we pool value
// embeddings (mean of up to `sample_size` distinct values, decoded from the
// record by HolisticSchemaMatcher) into a signature per column. Headers are
// deliberately excluded by default — data lake headers are unreliable (the
// paper's premise) — but can be blended in.
#ifndef LAKEFUZZ_EMBEDDING_COLUMN_EMBEDDER_H_
#define LAKEFUZZ_EMBEDDING_COLUMN_EMBEDDER_H_

#include <memory>
#include <string>
#include <vector>

#include "embedding/model.h"

namespace lakefuzz {

struct ColumnEmbedderOptions {
  /// Max distinct values pooled per column: callers pass a column's first
  /// `sample_size` distinct values (first-appearance order, so the
  /// signature is deterministic).
  size_t sample_size = 64;
  /// Weight of the header-name embedding in [0,1]; 0 ignores headers.
  double header_weight = 0.0;
};

/// Pools value embeddings into per-column signature vectors.
class ColumnEmbedder {
 public:
  ColumnEmbedder(std::shared_ptr<const EmbeddingModel> model,
                 ColumnEmbedderOptions options = ColumnEmbedderOptions());

  /// Signature of a column from its sampled distinct `values` (renderings)
  /// and its `header`: unit-norm mean of the value embeddings (+ optional
  /// header blend). No values (an all-null column) gives the zero vector.
  /// Unit-or-zero norm is an interface guarantee: consumers
  /// (HolisticSchemaMatcher) compare signatures with DotPrenormalized.
  Vec EmbedColumn(const std::vector<std::string>& values,
                  const std::string& header) const;

  const EmbeddingModel& model() const { return *model_; }

 private:
  std::shared_ptr<const EmbeddingModel> model_;
  ColumnEmbedderOptions options_;
};

}  // namespace lakefuzz

#endif  // LAKEFUZZ_EMBEDDING_COLUMN_EMBEDDER_H_
