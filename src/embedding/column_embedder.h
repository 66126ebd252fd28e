// ColumnEmbedder: column-level signatures for holistic schema matching.
//
// ALITE aligns columns by clustering column-level embeddings; we pool value
// embeddings (mean of up to `sample_size` distinct values, decoded from the
// record by HolisticSchemaMatcher) into a signature per column. Headers are
// deliberately excluded — data lake headers are unreliable (the paper's
// premise).
//
// Value embeddings come from an EmbeddingCache (a LakeEngine passes its
// session memo, so strings alignment embeds are hits for value matching).
// Signatures pool the memo's unit vectors: for a prenormalized model, which
// every MakeModel profile is, those are Embed's outputs unchanged, and a
// custom model that is not prenormalized has each value normalized before
// pooling.
#ifndef LAKEFUZZ_EMBEDDING_COLUMN_EMBEDDER_H_
#define LAKEFUZZ_EMBEDDING_COLUMN_EMBEDDER_H_

#include <memory>
#include <string>
#include <vector>

#include "embedding/embedding_cache.h"

namespace lakefuzz {

struct ColumnEmbedderOptions {
  /// Max distinct values pooled per column: callers pass a column's first
  /// `sample_size` distinct values (first-appearance order, so the
  /// signature is deterministic).
  size_t sample_size = 64;
};

/// Pools value embeddings into per-column signature vectors.
class ColumnEmbedder {
 public:
  ColumnEmbedder(std::shared_ptr<const EmbeddingCache> embeddings,
                 ColumnEmbedderOptions options = ColumnEmbedderOptions());

  /// Signature of a column from its sampled distinct `values` (renderings):
  /// unit-norm mean of the values' unit embeddings. No values (an all-null
  /// column) gives the zero vector. Unit-or-zero norm is an interface
  /// guarantee: consumers (HolisticSchemaMatcher) compare signatures with
  /// DotPrenormalized.
  Vec EmbedColumn(const std::vector<std::string>& values) const;

 private:
  std::shared_ptr<const EmbeddingCache> embeddings_;
  ColumnEmbedderOptions options_;
};

}  // namespace lakefuzz

#endif  // LAKEFUZZ_EMBEDDING_COLUMN_EMBEDDER_H_
