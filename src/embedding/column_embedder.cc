#include "embedding/column_embedder.h"

namespace lakefuzz {

ColumnEmbedder::ColumnEmbedder(std::shared_ptr<const EmbeddingCache> embeddings,
                               ColumnEmbedderOptions options)
    : embeddings_(std::move(embeddings)), options_(options) {}

Vec ColumnEmbedder::EmbedColumn(const std::vector<std::string>& values) const {
  Vec acc(embeddings_->model().dim(), 0.0f);
  for (const std::string& value : values) {
    AddScaled(&acc, *embeddings_->GetNormalized(value),
              1.0 / static_cast<double>(values.size()));
  }
  NormalizeInPlace(&acc);
  return acc;
}

}  // namespace lakefuzz
