#include "text/distance.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "text/tokenize.h"

namespace lakefuzz {

size_t Levenshtein(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);  // b is the shorter: O(|b|) space
  if (b.empty()) return a.size();
  std::vector<size_t> prev(b.size() + 1);
  std::vector<size_t> cur(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

double NormalizedLevenshtein(std::string_view a, std::string_view b) {
  size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return 0.0;
  return static_cast<double>(Levenshtein(a, b)) / static_cast<double>(max_len);
}

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a == b) return 1.0;
  const size_t window =
      std::max(a.size(), b.size()) / 2 == 0
          ? 0
          : std::max(a.size(), b.size()) / 2 - 1;
  std::vector<bool> a_matched(a.size(), false);
  std::vector<bool> b_matched(b.size(), false);
  size_t matches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    size_t lo = i > window ? i - window : 0;
    size_t hi = std::min(b.size(), i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (b_matched[j] || a[i] != b[j]) continue;
      a_matched[i] = b_matched[j] = true;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;
  // Count transpositions among matched characters.
  size_t t = 0;
  size_t j = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (a[i] != b[j]) ++t;
    ++j;
  }
  double m = static_cast<double>(matches);
  return (m / a.size() + m / b.size() + (m - t / 2.0) / m) / 3.0;
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  double jaro = JaroSimilarity(a, b);
  if (jaro < 0.7) return jaro;  // standard boost threshold
  size_t prefix = 0;
  size_t cap = std::min({a.size(), b.size(), size_t{4}});
  while (prefix < cap && a[prefix] == b[prefix]) ++prefix;
  return jaro + 0.1 * static_cast<double>(prefix) * (1.0 - jaro);
}

double NgramJaccard(std::string_view a, std::string_view b, size_t n) {
  auto ga = CharNgrams(a, n);
  auto gb = CharNgrams(b, n);
  if (ga.empty() && gb.empty()) return 1.0;
  if (ga.empty() || gb.empty()) return 0.0;
  std::unordered_set<std::string> sa(ga.begin(), ga.end());
  std::unordered_set<std::string> sb(gb.begin(), gb.end());
  size_t inter = 0;
  for (const auto& g : sa) inter += sb.count(g);
  size_t uni = sa.size() + sb.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / uni;
}

double TokenJaccard(std::string_view a, std::string_view b) {
  auto ta = WordTokens(a);
  auto tb = WordTokens(b);
  if (ta.empty() && tb.empty()) return 1.0;
  if (ta.empty() || tb.empty()) return 0.0;
  std::unordered_set<std::string> sa(ta.begin(), ta.end());
  std::unordered_set<std::string> sb(tb.begin(), tb.end());
  size_t inter = 0;
  for (const auto& t : sa) inter += sb.count(t);
  size_t uni = sa.size() + sb.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / uni;
}

std::string_view StringDistanceKindToString(StringDistanceKind kind) {
  switch (kind) {
    case StringDistanceKind::kNormalizedLevenshtein:
      return "levenshtein";
    case StringDistanceKind::kJaroWinkler:
      return "jaro-winkler";
    case StringDistanceKind::kNgramJaccard:
      return "ngram-jaccard";
    case StringDistanceKind::kTokenJaccard:
      return "token-jaccard";
  }
  return "unknown";
}

StringDistanceFn MakeStringDistance(StringDistanceKind kind) {
  switch (kind) {
    case StringDistanceKind::kNormalizedLevenshtein:
      return [](std::string_view a, std::string_view b) {
        return NormalizedLevenshtein(a, b);
      };
    case StringDistanceKind::kJaroWinkler:
      return [](std::string_view a, std::string_view b) {
        return 1.0 - JaroWinklerSimilarity(a, b);
      };
    case StringDistanceKind::kNgramJaccard:
      return [](std::string_view a, std::string_view b) {
        return 1.0 - NgramJaccard(a, b, 3);
      };
    case StringDistanceKind::kTokenJaccard:
      return [](std::string_view a, std::string_view b) {
        return 1.0 - TokenJaccard(a, b);
      };
  }
  return nullptr;
}

}  // namespace lakefuzz
