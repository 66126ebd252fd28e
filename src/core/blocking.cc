#include "core/blocking.h"

#include <algorithm>
#include <unordered_map>

#include "text/acronym.h"
#include "text/normalize.h"
#include "text/tokenize.h"
#include "util/hash.h"
#include "util/str.h"

namespace lakefuzz {
namespace {

/// Character n-gram size of the surface keys.
constexpr size_t kNgram = 3;
/// N-gram keys occurring in more than this fraction of the indexed side's
/// values are skipped (stop-gram suppression; keeps candidate sets
/// near-linear).
constexpr double kMaxKeyFrequency = 0.25;

/// All blocking keys of one value, hashed to 64-bit.
std::vector<uint64_t> KeysOf(const std::string& value,
                             const BlockingOptions& options) {
  std::vector<uint64_t> keys;
  std::string norm = Normalize(value);
  // Unpadded grams: padded boundary grams would make every short string a
  // candidate of every string sharing a first/last letter.
  for (const auto& gram : CharNgrams(norm, kNgram, /*pad=*/false)) {
    keys.push_back(Fnv1a64("g:" + gram));
  }
  auto tokens = WordTokens(norm);
  if (tokens.size() >= 2) {
    keys.push_back(Fnv1a64("i:" + Initials(norm)));
  } else if (!tokens.empty() && tokens[0].size() <= 4) {
    keys.push_back(Fnv1a64("i:" + tokens[0]));
  }
  if (options.knowledge_base != nullptr) {
    if (const auto* senses = options.knowledge_base->LookupAll(value)) {
      for (ConceptId id : *senses) {
        keys.push_back(Mix64(id ^ 0xb10c));
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

}  // namespace

std::vector<std::pair<size_t, size_t>> GenerateCandidates(
    const std::vector<std::string>& left,
    const std::vector<std::string>& right, const BlockingOptions& options) {
  // Inverted index over the smaller side.
  const bool left_small = left.size() <= right.size();
  const auto& small = left_small ? left : right;
  const auto& large = left_small ? right : left;

  std::unordered_map<uint64_t, std::vector<size_t>> index;
  for (size_t i = 0; i < small.size(); ++i) {
    for (uint64_t k : KeysOf(small[i], options)) {
      index[k].push_back(i);
    }
  }
  const size_t max_posting = std::max<size_t>(
      8, static_cast<size_t>(kMaxKeyFrequency *
                             static_cast<double>(small.size())));

  std::vector<std::pair<size_t, size_t>> pairs;
  std::vector<uint64_t> seen_stamp(small.size(), ~uint64_t{0});
  for (size_t j = 0; j < large.size(); ++j) {
    for (uint64_t k : KeysOf(large[j], options)) {
      auto it = index.find(k);
      if (it == index.end() || it->second.size() > max_posting) continue;
      for (size_t i : it->second) {
        if (seen_stamp[i] == j) continue;
        seen_stamp[i] = j;
        pairs.emplace_back(left_small ? i : j, left_small ? j : i);
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

}  // namespace lakefuzz
