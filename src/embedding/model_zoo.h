// ModelZoo: the five embedding baselines of the paper's Table 1.
//
// Each is a HashedNgramModel profile whose knowledge-base coverage and noise
// simulate the corresponding pre-trained model's quality (DESIGN.md §1):
//
//   FastText — subword n-grams only, no world knowledge.
//   BERT     — tokens + n-grams, partial alias knowledge, some noise.
//   RoBERTa  — like BERT, slightly better coverage/noise.
//   Llama3   — near-complete alias knowledge, initials feature.
//   Mistral  — best coverage, least noise (the paper's pick).
#ifndef LAKEFUZZ_EMBEDDING_MODEL_ZOO_H_
#define LAKEFUZZ_EMBEDDING_MODEL_ZOO_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "embedding/model.h"
#include "util/result.h"

namespace lakefuzz {

enum class ModelKind {
  kFastText,
  kBert,
  kRoberta,
  kLlama3,
  kMistral,
};

/// All kinds in Table 1 row order.
const std::vector<ModelKind>& AllModelKinds();

std::string_view ModelKindToString(ModelKind kind);
Result<ModelKind> ModelKindFromString(std::string_view name);

/// Builds the profile for `kind`. Every call returns an equivalent,
/// deterministic, prenormalized HashedNgramModel; wrap it in an
/// EmbeddingCache to memoize its vectors.
std::shared_ptr<const EmbeddingModel> MakeModel(ModelKind kind,
                                                size_t dim = 256);

}  // namespace lakefuzz

#endif  // LAKEFUZZ_EMBEDDING_MODEL_ZOO_H_
