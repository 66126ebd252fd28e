// Per-column sketches for lake-scale table discovery.
//
// Discovery must answer "which registered tables are unionable with this
// one?" without scanning cell data per query. Each column is summarized
// once, at registration (or bulk resync) time, into a ColumnSketch:
//
//  * a MinHash signature estimating value-set overlap (Jaccard) between any
//    two columns in O(signature_size) — built over the *content hashes* the
//    session dictionary already stores per interned code
//    (ValueDict::HashOf), so sketching a registered table re-hashes no
//    strings and, crucially, is invariant to code assignment order: the
//    same column yields bit-identical signatures no matter how many
//    threads were interning concurrently;
//  * a lightweight profile (type mix, length, null/distinct counts) feeding
//    the schema-compatibility half of the discovery score.
//
// Sketches are plain data: building them is the only part that touches the
// dictionary, and comparing them (EstimateJaccard / SchemaCompatibility) is
// pure arithmetic, safe from any thread.
#ifndef LAKEFUZZ_DISCOVERY_COLUMN_SKETCH_H_
#define LAKEFUZZ_DISCOVERY_COLUMN_SKETCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fd/value_dict.h"

namespace lakefuzz {

struct SketchOptions {
  /// MinHash functions per signature. More = tighter Jaccard estimates
  /// (standard error ~ 1/sqrt(k)); 64 keeps a column sketch at 512 bytes.
  size_t signature_size = 64;
  /// Salt for the MinHash function family. Engines that must agree on
  /// signatures (none today) need equal seeds.
  uint64_t seed = 0x1a4ef0 + 2026;
};

/// Shape summary of one column, filled by BuildColumnSketch.
struct ColumnProfile {
  uint64_t rows = 0;      ///< cells scanned
  uint64_t nulls = 0;     ///< null cells
  uint64_t distinct = 0;  ///< distinct non-null values
  /// Type mix over distinct values (fractions sum to 1 when distinct > 0).
  double frac_string = 0.0;
  double frac_int = 0.0;
  double frac_double = 0.0;
  double frac_bool = 0.0;
  /// Mean rendered length of distinct values (string length for strings,
  /// decimal rendering for numerics).
  double avg_len = 0.0;
};

/// One column's discovery summary: header + MinHash signature + profile.
struct ColumnSketch {
  std::string name;
  /// signature_size minima; UINT64_MAX slots when the column has no
  /// non-null value (empty() below).
  std::vector<uint64_t> signature;
  ColumnProfile profile;

  bool empty() const { return profile.distinct == 0; }
};

/// Sketches one interned column. `codes` is one of an EncodedTable's code
/// columns; `dict` supplies Decode/HashOf for profiling
/// and hashing. Deterministic: depends only on the multiset of values, not
/// on code numbering, intern interleaving, or thread count.
ColumnSketch BuildColumnSketch(std::string name,
                               const std::vector<uint32_t>& codes,
                               const ValueDict& dict,
                               const SketchOptions& options);

/// Same sketch, built from raw cells without any dictionary (MinHash input
/// is Value::Hash() on both paths, so the two builders agree bit for bit).
/// Used for ad-hoc discovery queries, which must not grow the session
/// dictionary.
ColumnSketch BuildColumnSketchFromValues(std::string name,
                                         const std::vector<Value>& values,
                                         const SketchOptions& options);

/// MinHash estimate of the value-set Jaccard similarity of two columns,
/// in [0, 1]. Zero when either side is empty or signature sizes differ.
double EstimateJaccard(const ColumnSketch& a, const ColumnSketch& b);

/// Profile-based schema compatibility in [0, 1]: type-mix agreement,
/// length-shape agreement, and a case-insensitive header-equality bonus.
/// Complements EstimateJaccard for columns whose *domains* align even when
/// their current value sets barely overlap.
double SchemaCompatibility(const ColumnSketch& a, const ColumnSketch& b);

}  // namespace lakefuzz

#endif  // LAKEFUZZ_DISCOVERY_COLUMN_SKETCH_H_
