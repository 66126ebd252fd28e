// Tokenizers: word tokens and character n-grams.
#ifndef LAKEFUZZ_TEXT_TOKENIZE_H_
#define LAKEFUZZ_TEXT_TOKENIZE_H_

#include <string>
#include <string_view>
#include <vector>

namespace lakefuzz {

/// Splits into maximal alphanumeric runs ("New-Delhi 2021" → {new, delhi,
/// 2021} after lowercasing by the caller; this function does not fold case).
std::vector<std::string> WordTokens(std::string_view s);

/// Character n-grams of length `n`. When `pad` is true the string is framed
/// with (n-1) boundary markers '\x01' so prefixes/suffixes get dedicated
/// grams (FastText-style). Strings shorter than n yield the whole string.
std::vector<std::string> CharNgrams(std::string_view s, size_t n,
                                    bool pad = true);

}  // namespace lakefuzz

#endif  // LAKEFUZZ_TEXT_TOKENIZE_H_
