// EmbeddingModel: the interface the value matcher consumes.
//
// The paper embeds each cell value with a language model and compares
// embeddings by cosine distance (Sec 2.2, "Embed Column Values"). Any
// implementation of this interface can be plugged into the matcher —
// including user-provided ones (see examples/custom_model.cc). A model does
// not memoize: consumers read its vectors through an EmbeddingCache
// (embedding/embedding_cache.h), the one memo of Embed.
#ifndef LAKEFUZZ_EMBEDDING_MODEL_H_
#define LAKEFUZZ_EMBEDDING_MODEL_H_

#include <string>
#include <string_view>

#include "embedding/vector_ops.h"

namespace lakefuzz {

/// Maps strings to fixed-dimension dense vectors. Implementations must be
/// deterministic (same input → same vector) and thread-compatible for
/// concurrent Embed calls.
class EmbeddingModel {
 public:
  virtual ~EmbeddingModel() = default;

  /// Embedding of a cell value. Must return a vector of dim() floats.
  virtual Vec Embed(std::string_view value) const = 0;

  /// Embedding dimensionality.
  virtual size_t dim() const = 0;

  /// Display name ("Mistral", "FastText", ...).
  virtual std::string name() const = 0;

  /// True when Embed() always returns a unit-norm (or all-zero) vector.
  /// Consumers holding two such vectors may use CosineDistancePrenormalized
  /// (a single dot product) instead of the norm-recomputing CosineDistance.
  /// EmbeddingCache re-normalizes defensively when this is false.
  virtual bool prenormalized() const { return false; }
};

}  // namespace lakefuzz

#endif  // LAKEFUZZ_EMBEDDING_MODEL_H_
