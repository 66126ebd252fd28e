#include "text/tokenize.h"

#include <cctype>

namespace lakefuzz {

std::vector<std::string> WordTokens(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  auto is_word = [](unsigned char c) {
    return c >= 0x80 || std::isalnum(c);
  };
  while (i < s.size()) {
    while (i < s.size() && !is_word(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && is_word(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::vector<std::string> CharNgrams(std::string_view s, size_t n, bool pad) {
  std::vector<std::string> out;
  if (n == 0) return out;
  std::string framed;
  if (pad && n > 1) {
    framed.assign(n - 1, '\x01');
    framed.append(s);
    framed.append(n - 1, '\x01');
  } else {
    framed.assign(s);
  }
  if (framed.size() < n) {
    if (!framed.empty()) out.push_back(framed);
    return out;
  }
  out.reserve(framed.size() - n + 1);
  for (size_t i = 0; i + n <= framed.size(); ++i) {
    out.push_back(framed.substr(i, n));
  }
  return out;
}

}  // namespace lakefuzz
