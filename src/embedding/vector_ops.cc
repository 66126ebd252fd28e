#include "embedding/vector_ops.h"

#include <cassert>
#include <cmath>

// AVX2 kernels for the matcher's hot dot products, per cell and 2×2
// blocked, compiled per-function via target attributes (no global -mavx2,
// so the binary still runs on older x86-64) and selected once at runtime
// with __builtin_cpu_supports. Scalar fallback everywhere else.
#if defined(__GNUC__) && defined(__x86_64__)
#define LAKEFUZZ_HAVE_AVX2_DISPATCH 1
#include <immintrin.h>
#endif

namespace lakefuzz {
namespace {

double DotScalar(const float* a, const float* b, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

#ifdef LAKEFUZZ_HAVE_AVX2_DISPATCH

// An 8-float chunk widened to doubles: lanes 0-3, then lanes 4-7.
__attribute__((target("avx2,fma"))) inline __m256d WidenLo(__m256 v) {
  return _mm256_cvtps_pd(_mm256_castps256_ps128(v));
}
__attribute__((target("avx2,fma"))) inline __m256d WidenHi(__m256 v) {
  return _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
}

/// The one horizontal reduction of a cell's two accumulators. DotAvx2 and
/// the blocked kernel both end with it, so their sums agree bit for bit.
__attribute__((target("avx2,fma"))) inline double ReduceLanes(__m256d acc_lo,
                                                              __m256d acc_hi) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, _mm256_add_pd(acc_lo, acc_hi));
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

__attribute__((target("avx2,fma"))) double DotAvx2(const float* a,
                                                   const float* b, size_t n) {
  // Widen to double before accumulating — same precision class as the
  // scalar loop, so the parity bound is rounding-order noise only.
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 va = _mm256_loadu_ps(a + i);
    __m256 vb = _mm256_loadu_ps(b + i);
    acc_lo = _mm256_fmadd_pd(WidenLo(va), WidenLo(vb), acc_lo);
    acc_hi = _mm256_fmadd_pd(WidenHi(va), WidenHi(vb), acc_hi);
  }
  double acc = ReduceLanes(acc_lo, acc_hi);
  for (; i < n; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

/// CosineDistanceBlock for `dim` a multiple of 8. Each 2×2 block of cells
/// loads and widens its two rows' and two columns' chunks once for all four
/// cells, and keeps DotAvx2's two accumulators per cell: the same FMAs in
/// the same order, then ReduceLanes, so every cell equals DotAvx2's. A
/// leftover row or column goes through DotAvx2 itself.
__attribute__((target("avx2,fma"))) void CosineDistanceBlockAvx2(
    const float* const* rows, size_t num_rows, const float* const* cols,
    size_t num_cols, size_t dim, double* out) {
  const size_t paired_rows = num_rows & ~size_t{1};
  const size_t paired_cols = num_cols & ~size_t{1};
  for (size_t r = 0; r < paired_rows; r += 2) {
    const float* a0 = rows[r];
    const float* a1 = rows[r + 1];
    double* out0 = out + r * num_cols;
    double* out1 = out0 + num_cols;
    for (size_t c = 0; c < paired_cols; c += 2) {
      const float* b0 = cols[c];
      const float* b1 = cols[c + 1];
      __m256d s00_lo = _mm256_setzero_pd(), s00_hi = _mm256_setzero_pd();
      __m256d s01_lo = _mm256_setzero_pd(), s01_hi = _mm256_setzero_pd();
      __m256d s10_lo = _mm256_setzero_pd(), s10_hi = _mm256_setzero_pd();
      __m256d s11_lo = _mm256_setzero_pd(), s11_hi = _mm256_setzero_pd();
      for (size_t i = 0; i < dim; i += 8) {
        const __m256 va0 = _mm256_loadu_ps(a0 + i);
        const __m256 va1 = _mm256_loadu_ps(a1 + i);
        const __m256 vb0 = _mm256_loadu_ps(b0 + i);
        const __m256 vb1 = _mm256_loadu_ps(b1 + i);
        const __m256d a0_lo = WidenLo(va0);
        const __m256d a1_lo = WidenLo(va1);
        const __m256d b0_lo = WidenLo(vb0);
        const __m256d b1_lo = WidenLo(vb1);
        s00_lo = _mm256_fmadd_pd(a0_lo, b0_lo, s00_lo);
        s01_lo = _mm256_fmadd_pd(a0_lo, b1_lo, s01_lo);
        s10_lo = _mm256_fmadd_pd(a1_lo, b0_lo, s10_lo);
        s11_lo = _mm256_fmadd_pd(a1_lo, b1_lo, s11_lo);
        const __m256d a0_hi = WidenHi(va0);
        const __m256d a1_hi = WidenHi(va1);
        const __m256d b0_hi = WidenHi(vb0);
        const __m256d b1_hi = WidenHi(vb1);
        s00_hi = _mm256_fmadd_pd(a0_hi, b0_hi, s00_hi);
        s01_hi = _mm256_fmadd_pd(a0_hi, b1_hi, s01_hi);
        s10_hi = _mm256_fmadd_pd(a1_hi, b0_hi, s10_hi);
        s11_hi = _mm256_fmadd_pd(a1_hi, b1_hi, s11_hi);
      }
      out0[c] = 1.0 - ReduceLanes(s00_lo, s00_hi);
      out0[c + 1] = 1.0 - ReduceLanes(s01_lo, s01_hi);
      out1[c] = 1.0 - ReduceLanes(s10_lo, s10_hi);
      out1[c + 1] = 1.0 - ReduceLanes(s11_lo, s11_hi);
    }
    if (paired_cols < num_cols) {
      out0[paired_cols] = 1.0 - DotAvx2(a0, cols[paired_cols], dim);
      out1[paired_cols] = 1.0 - DotAvx2(a1, cols[paired_cols], dim);
    }
  }
  if (paired_rows < num_rows) {
    double* last = out + paired_rows * num_cols;
    for (size_t c = 0; c < num_cols; ++c) {
      last[c] = 1.0 - DotAvx2(rows[paired_rows], cols[c], dim);
    }
  }
}

#endif  // LAKEFUZZ_HAVE_AVX2_DISPATCH

using DotKernel = double (*)(const float*, const float*, size_t);
using BlockKernel = void (*)(const float* const*, size_t, const float* const*,
                             size_t, size_t, double*);

/// This CPU's prenormalized kernels. `block` takes only a `dim` that is a
/// multiple of 8, and is null where there is no blocked kernel.
struct Kernels {
  DotKernel dot;
  BlockKernel block;
};

Kernels ResolveKernels() {
#ifdef LAKEFUZZ_HAVE_AVX2_DISPATCH
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return {DotAvx2, CosineDistanceBlockAvx2};
  }
#endif
  return {DotScalar, nullptr};
}

/// Resolved once per process (thread-safe magic static); both prenormalized
/// entry points read it.
const Kernels& PrenormalizedKernels() {
  static const Kernels kernels = ResolveKernels();
  return kernels;
}

}  // namespace

double Dot(const Vec& a, const Vec& b) {
  assert(a.size() == b.size());
  return DotScalar(a.data(), b.data(), a.size());
}

double Norm(const Vec& v) { return std::sqrt(Dot(v, v)); }

void NormalizeInPlace(Vec* v) {
  double n = Norm(*v);
  if (n <= 0.0) return;
  float inv = static_cast<float>(1.0 / n);
  for (auto& x : *v) x *= inv;
}

void AddScaled(Vec* a, const Vec& b, double scale) {
  assert(a->size() == b.size());
  for (size_t i = 0; i < b.size(); ++i) {
    (*a)[i] += static_cast<float>(scale * b[i]);
  }
}

double CosineSimilarity(const Vec& a, const Vec& b) {
  double na = Norm(a);
  double nb = Norm(b);
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return Dot(a, b) / (na * nb);
}

double CosineDistance(const Vec& a, const Vec& b) {
  return 1.0 - CosineSimilarity(a, b);
}

double DotPrenormalized(const Vec& a, const Vec& b) {
  assert(a.size() == b.size());
  return PrenormalizedKernels().dot(a.data(), b.data(), a.size());
}

double CosineDistancePrenormalized(const Vec& a, const Vec& b) {
  return 1.0 - DotPrenormalized(a, b);
}

void CosineDistanceBlock(const float* const* rows, size_t num_rows,
                         const float* const* cols, size_t num_cols,
                         size_t dim, double* out) {
  const Kernels& kernels = PrenormalizedKernels();
  if (kernels.block != nullptr && dim % 8 == 0) {
    kernels.block(rows, num_rows, cols, num_cols, dim, out);
    return;
  }
  for (size_t r = 0; r < num_rows; ++r) {
    for (size_t c = 0; c < num_cols; ++c) {
      out[r * num_cols + c] = 1.0 - kernels.dot(rows[r], cols[c], dim);
    }
  }
}

}  // namespace lakefuzz
