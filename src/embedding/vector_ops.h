// Dense float vector operations used by the embedding layer.
#ifndef LAKEFUZZ_EMBEDDING_VECTOR_OPS_H_
#define LAKEFUZZ_EMBEDDING_VECTOR_OPS_H_

#include <cstddef>
#include <vector>

namespace lakefuzz {

using Vec = std::vector<float>;

/// Dot product; vectors must have equal dimension.
double Dot(const Vec& a, const Vec& b);

/// Euclidean norm.
double Norm(const Vec& v);

/// Scales `v` to unit norm in place; zero vectors are left unchanged.
void NormalizeInPlace(Vec* v);

/// a += scale * b.
void AddScaled(Vec* a, const Vec& b, double scale);

/// Cosine similarity in [-1, 1]; either vector zero → 0.
double CosineSimilarity(const Vec& a, const Vec& b);

/// Cosine distance in [0, 2]: 1 - CosineSimilarity. This is the `dist`
/// function of the paper's Definition 2 (thresholded at θ).
double CosineDistance(const Vec& a, const Vec& b);

/// Dot product of two *unit* (or zero) vectors — equals their cosine
/// similarity without recomputing norms. Callers must uphold the invariant
/// (EmbeddingCache and ColumnEmbedder outputs do; see
/// EmbeddingModel::prenormalized()). Zero vectors yield 0, matching
/// CosineSimilarity's convention.
///
/// This is the per-cell kernel: on x86-64 an AVX2+FMA version (double
/// accumulation, runtime-dispatched via cpuid) is used when the CPU supports
/// it, with the scalar loop as fallback. Both accumulate in double; results
/// agree to rounding-order noise (see the parity test).
double DotPrenormalized(const Vec& a, const Vec& b);

/// 1 - DotPrenormalized: cosine distance when both inputs are pre-normalized.
/// Sparse edge scoring uses this; the general CosineDistance stays for
/// external callers with arbitrary vectors.
double CosineDistancePrenormalized(const Vec& a, const Vec& b);

/// The matcher's dense cost fill: out[r * num_cols + c] =
/// 1 - dot(rows[r], cols[c]) for every r < num_rows, c < num_cols, where
/// each pointed-to vector holds `dim` pre-normalized floats. Every cell is
/// bit-identical to CosineDistancePrenormalized on the same pair. With AVX2
/// + FMA and `dim` a multiple of 8, cells are computed in 2×2 blocks that
/// load and widen each row's and column's 8-float chunk once for four
/// cells, each cell keeping the per-cell kernel's accumulation order; a
/// leftover row or column, any other `dim`, and CPUs without AVX2 + FMA
/// take the per-cell kernel itself.
void CosineDistanceBlock(const float* const* rows, size_t num_rows,
                         const float* const* cols, size_t num_cols,
                         size_t dim, double* out);

}  // namespace lakefuzz

#endif  // LAKEFUZZ_EMBEDDING_VECTOR_OPS_H_
