#include "embedding/column_embedder.h"

namespace lakefuzz {

ColumnEmbedder::ColumnEmbedder(std::shared_ptr<const EmbeddingModel> model,
                               ColumnEmbedderOptions options)
    : model_(std::move(model)), options_(options) {}

Vec ColumnEmbedder::EmbedColumn(const std::vector<std::string>& values,
                                const std::string& header) const {
  Vec acc(model_->dim(), 0.0f);
  for (const std::string& value : values) {
    Vec v = model_->Embed(value);
    AddScaled(&acc, v, 1.0 / static_cast<double>(values.size()));
  }
  if (options_.header_weight > 0.0) {
    Vec h = model_->Embed(header);
    Vec out(model_->dim(), 0.0f);
    AddScaled(&out, acc, 1.0 - options_.header_weight);
    AddScaled(&out, h, options_.header_weight);
    acc = std::move(out);
  }
  NormalizeInPlace(&acc);
  return acc;
}

}  // namespace lakefuzz
