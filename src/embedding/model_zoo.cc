#include "embedding/model_zoo.h"

#include "embedding/hashed_model.h"
#include "embedding/knowledge_base.h"

namespace lakefuzz {

const std::vector<ModelKind>& AllModelKinds() {
  static const auto* kinds = new std::vector<ModelKind>{
      ModelKind::kFastText, ModelKind::kBert, ModelKind::kRoberta,
      ModelKind::kLlama3, ModelKind::kMistral,
  };
  return *kinds;
}

std::string_view ModelKindToString(ModelKind kind) {
  switch (kind) {
    case ModelKind::kFastText:
      return "FastText";
    case ModelKind::kBert:
      return "BERT";
    case ModelKind::kRoberta:
      return "RoBERTa";
    case ModelKind::kLlama3:
      return "Llama3";
    case ModelKind::kMistral:
      return "Mistral";
  }
  return "unknown";
}

Result<ModelKind> ModelKindFromString(std::string_view name) {
  for (ModelKind kind : AllModelKinds()) {
    if (ModelKindToString(kind) == name) return kind;
  }
  return Status::InvalidArgument("unknown model: " + std::string(name));
}

std::shared_ptr<const EmbeddingModel> MakeModel(ModelKind kind, size_t dim) {
  HashedModelConfig cfg;
  cfg.dim = dim;
  cfg.name = std::string(ModelKindToString(kind));
  const KnowledgeBase& full = KnowledgeBase::BuiltIn();

  // Coverage/noise settings are the calibration knobs of the simulation:
  // they are fixed here once and validated by the Table 1 reproduction
  // (EXPERIMENTS.md), not tuned per dataset.
  switch (kind) {
    case ModelKind::kFastText:
      cfg.ngram_min = 3;
      cfg.ngram_max = 6;
      cfg.use_word_tokens = true;
      cfg.knowledge_base = nullptr;  // no world knowledge
      cfg.noise = 0.33;
      cfg.seed = 0xfa57;
      break;
    case ModelKind::kBert:
      cfg.ngram_min = 3;
      cfg.ngram_max = 4;
      cfg.use_word_tokens = true;
      cfg.knowledge_base = std::make_shared<KnowledgeBase>(
          full.Subset(/*coverage=*/0.55, /*seed=*/0xbe27));
      cfg.kb_weight = 0.5;
      cfg.noise = 0.13;
      cfg.seed = 0xbe27;
      break;
    case ModelKind::kRoberta:
      cfg.ngram_min = 3;
      cfg.ngram_max = 4;
      cfg.use_word_tokens = true;
      cfg.knowledge_base = std::make_shared<KnowledgeBase>(
          full.Subset(/*coverage=*/0.62, /*seed=*/0x20be));
      cfg.kb_weight = 0.5;
      cfg.noise = 0.12;
      cfg.seed = 0x20be;
      break;
    case ModelKind::kLlama3:
      cfg.ngram_min = 3;
      cfg.ngram_max = 5;
      cfg.use_word_tokens = true;
      cfg.use_initials_feature = true;
      cfg.knowledge_base = std::make_shared<KnowledgeBase>(
          full.Subset(/*coverage=*/0.9, /*seed=*/0x11a3));
      cfg.kb_weight = 0.55;
      cfg.noise = 0.10;
      cfg.seed = 0x11a3;
      break;
    case ModelKind::kMistral:
      cfg.ngram_min = 3;
      cfg.ngram_max = 5;
      cfg.use_word_tokens = true;
      cfg.use_initials_feature = true;
      // Full alias coverage: the paper's best model; its residual errors
      // come from noise, ambiguity, and the matcher itself.
      cfg.knowledge_base = std::make_shared<KnowledgeBase>(full);
      cfg.kb_weight = 0.55;
      cfg.noise = 0.07;
      cfg.seed = 0x7b1e;
      break;
  }
  return std::make_shared<HashedNgramModel>(std::move(cfg));
}

}  // namespace lakefuzz
