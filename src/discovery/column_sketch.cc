#include "discovery/column_sketch.h"

#include <algorithm>
#include <cmath>
#include <memory_resource>
#include <unordered_set>

#include "util/hash.h"
#include "util/str.h"

namespace lakefuzz {
namespace {

/// The i-th MinHash function applied to a value's content hash. Mix64 over
/// (hash ^ per-function salt) gives k independent-enough permutations
/// without re-touching the value.
inline uint64_t MinHashAt(uint64_t value_hash, uint64_t salt) {
  return Mix64(value_hash ^ salt);
}

/// Shared accumulation core of the two builders: signature minima + profile
/// over distinct non-null values. Both feed it (value, Value::Hash()) pairs,
/// so sketches are identical whether values arrive as interned codes or raw
/// cells.
class SketchAccumulator {
 public:
  SketchAccumulator(std::string name, const SketchOptions& options) {
    sketch_.name = std::move(name);
    const size_t k = std::max<size_t>(1, options.signature_size);
    sketch_.signature.assign(k, UINT64_MAX);
    // Per-function salts; Mix64(seed + i) decorrelates consecutive function
    // indices.
    salts_.resize(k);
    for (size_t i = 0; i < k; ++i) salts_[i] = Mix64(options.seed + i);
  }

  void AddNull() { ++sketch_.profile.nulls; }

  /// One occurrence of a *distinct* value (callers deduplicate).
  void AddDistinct(const Value& v, uint64_t value_hash) {
    auto& sig = sketch_.signature;
    for (size_t i = 0; i < sig.size(); ++i) {
      const uint64_t h = MinHashAt(value_hash, salts_[i]);
      if (h < sig[i]) sig[i] = h;
    }
    switch (v.type()) {
      case ValueType::kString:
        ++n_string_;
        len_sum_ += static_cast<double>(v.AsString().size());
        break;
      case ValueType::kInt64:
        ++n_int_;
        len_sum_ += static_cast<double>(v.ToString().size());
        break;
      case ValueType::kDouble:
        ++n_double_;
        len_sum_ += static_cast<double>(v.ToString().size());
        break;
      case ValueType::kBool:
        ++n_bool_;
        len_sum_ += static_cast<double>(v.ToString().size());
        break;
      case ValueType::kNull:
        break;  // unreachable: nulls go through AddNull
    }
  }

  ColumnSketch Finish(uint64_t rows, uint64_t distinct) && {
    ColumnProfile& p = sketch_.profile;
    p.rows = rows;
    p.distinct = distinct;
    if (distinct > 0) {
      const double d = static_cast<double>(distinct);
      p.frac_string = static_cast<double>(n_string_) / d;
      p.frac_int = static_cast<double>(n_int_) / d;
      p.frac_double = static_cast<double>(n_double_) / d;
      p.frac_bool = static_cast<double>(n_bool_) / d;
      p.avg_len = len_sum_ / d;
    }
    return std::move(sketch_);
  }

 private:
  ColumnSketch sketch_;
  std::vector<uint64_t> salts_;
  double len_sum_ = 0.0;
  uint64_t n_string_ = 0, n_int_ = 0, n_double_ = 0, n_bool_ = 0;
};

}  // namespace

// Both builders dedup on a std::pmr::unordered_set over a monotonic buffer
// local to the call: a node allocation is a pointer bump and a free is a
// no-op, which keeps the per-value dedup off the general-purpose heap.

ColumnSketch BuildColumnSketch(std::string name,
                               const std::vector<uint32_t>& codes,
                               const ValueDict& dict,
                               const SketchOptions& options) {
  SketchAccumulator acc(std::move(name), options);
  // Duplicate occurrences cannot change a minimum, so the k-hash work runs
  // once per *distinct* code.
  std::pmr::monotonic_buffer_resource buffer;
  std::pmr::unordered_set<uint32_t> seen(&buffer);
  seen.reserve(codes.size() / 2 + 1);
  for (uint32_t code : codes) {
    if (code == ValueDict::kNullCode) {
      acc.AddNull();
      continue;
    }
    if (!seen.insert(code).second) continue;
    acc.AddDistinct(dict.Decode(code), dict.HashOf(code));
  }
  return std::move(acc).Finish(codes.size(), seen.size());
}

ColumnSketch BuildColumnSketchFromValues(std::string name,
                                         const std::vector<Value>& values,
                                         const SketchOptions& options) {
  SketchAccumulator acc(std::move(name), options);
  // Dedup by content hash — the same 64-bit hash MinHash consumes, so a
  // (cosmically unlikely) collision merges two values here exactly as it
  // would merge their signatures.
  std::pmr::monotonic_buffer_resource buffer;
  std::pmr::unordered_set<uint64_t> seen(&buffer);
  seen.reserve(values.size() / 2 + 1);
  for (const Value& v : values) {
    if (v.is_null()) {
      acc.AddNull();
      continue;
    }
    const uint64_t h = v.Hash();
    if (!seen.insert(h).second) continue;
    acc.AddDistinct(v, h);
  }
  return std::move(acc).Finish(values.size(), seen.size());
}

double EstimateJaccard(const ColumnSketch& a, const ColumnSketch& b) {
  if (a.empty() || b.empty()) return 0.0;
  if (a.signature.size() != b.signature.size() || a.signature.empty()) {
    return 0.0;
  }
  size_t equal = 0;
  for (size_t i = 0; i < a.signature.size(); ++i) {
    if (a.signature[i] == b.signature[i]) ++equal;
  }
  return static_cast<double>(equal) / static_cast<double>(a.signature.size());
}

double SchemaCompatibility(const ColumnSketch& a, const ColumnSketch& b) {
  const ColumnProfile& pa = a.profile;
  const ColumnProfile& pb = b.profile;
  // Type-mix agreement: 1 - half the L1 distance between the fraction
  // vectors (total variation distance), in [0, 1].
  const double l1 = std::abs(pa.frac_string - pb.frac_string) +
                    std::abs(pa.frac_int - pb.frac_int) +
                    std::abs(pa.frac_double - pb.frac_double) +
                    std::abs(pa.frac_bool - pb.frac_bool);
  const double type_sim = 1.0 - 0.5 * l1;
  // Length-shape agreement: ratio of mean rendered lengths (+1 smooths
  // empty-string columns), in (0, 1].
  const double la = pa.avg_len + 1.0;
  const double lb = pb.avg_len + 1.0;
  const double len_sim = la < lb ? la / lb : lb / la;
  const double name_sim = EqualsIgnoreCase(a.name, b.name) ? 1.0 : 0.0;
  return 0.6 * type_sim + 0.25 * len_sim + 0.15 * name_sim;
}

}  // namespace lakefuzz
