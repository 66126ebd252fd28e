// Classic string similarity / distance functions.
//
// These serve two roles: (1) ablation baselines against embedding cosine in
// the ValueMatcher (paper implicitly compares embedding families only; we add
// the classic-similarity ablation), and (2) building blocks for the entity
// matcher. All "distance" functions return values in [0, 1] where 0 means
// identical, matching the cosine-distance convention of the matcher.
#ifndef LAKEFUZZ_TEXT_DISTANCE_H_
#define LAKEFUZZ_TEXT_DISTANCE_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

namespace lakefuzz {

/// Unit-cost edit distance (insert/delete/substitute). O(|a|·|b|) time,
/// O(min) space.
size_t Levenshtein(std::string_view a, std::string_view b);

/// Levenshtein normalized to [0,1] by max length (0 = identical).
double NormalizedLevenshtein(std::string_view a, std::string_view b);

/// Jaro similarity in [0,1] (1 = identical).
double JaroSimilarity(std::string_view a, std::string_view b);

/// Jaro-Winkler similarity with standard prefix scale 0.1, prefix cap 4.
double JaroWinklerSimilarity(std::string_view a, std::string_view b);

/// Jaccard similarity of the *sets* of character n-grams (1 = identical;
/// both empty → 1).
double NgramJaccard(std::string_view a, std::string_view b, size_t n = 3);

/// Jaccard similarity of word-token sets.
double TokenJaccard(std::string_view a, std::string_view b);

/// Named distance functions selectable in configs/benchmarks.
enum class StringDistanceKind {
  kNormalizedLevenshtein,
  kJaroWinkler,   ///< 1 - JaroWinklerSimilarity
  kNgramJaccard,  ///< 1 - NgramJaccard(3)
  kTokenJaccard,  ///< 1 - TokenJaccard
};

std::string_view StringDistanceKindToString(StringDistanceKind kind);

/// A [0,1] distance function over strings.
using StringDistanceFn =
    std::function<double(std::string_view, std::string_view)>;

/// Returns the distance function for `kind`.
StringDistanceFn MakeStringDistance(StringDistanceKind kind);

}  // namespace lakefuzz

#endif  // LAKEFUZZ_TEXT_DISTANCE_H_
