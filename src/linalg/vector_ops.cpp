#include "linalg/vector_ops.h"

#include <cmath>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace rabitq {

namespace scalar {

float Dot(const float* a, const float* b, std::size_t dim) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < dim; ++i) acc += a[i] * b[i];
  return acc;
}

float L2SqrDistance(const float* a, const float* b, std::size_t dim) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < dim; ++i) {
    const float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

}  // namespace scalar

#if defined(__AVX2__)

namespace {

inline float HorizontalSum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_hadd_ps(lo, lo);
  lo = _mm_hadd_ps(lo, lo);
  return _mm_cvtss_f32(lo);
}

}  // namespace

float Dot(const float* a, const float* b, std::size_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8),
                           acc1);
  }
  for (; i + 8 <= dim; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
  }
  float acc = HorizontalSum(_mm256_add_ps(acc0, acc1));
  for (; i < dim; ++i) acc += a[i] * b[i];
  return acc;
}

float L2SqrDistance(const float* a, const float* b, std::size_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    const __m256 d1 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 8 <= dim; i += 8) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
  }
  float acc = HorizontalSum(_mm256_add_ps(acc0, acc1));
  for (; i < dim; ++i) {
    const float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

#else  // !defined(__AVX2__)

float Dot(const float* a, const float* b, std::size_t dim) {
  return scalar::Dot(a, b, dim);
}

float L2SqrDistance(const float* a, const float* b, std::size_t dim) {
  return scalar::L2SqrDistance(a, b, dim);
}

#endif  // defined(__AVX2__)

float SquaredNorm(const float* a, std::size_t dim) { return Dot(a, a, dim); }

float Norm(const float* a, std::size_t dim) {
  return std::sqrt(SquaredNorm(a, dim));
}

void Subtract(const float* a, const float* b, float* out, std::size_t dim) {
  for (std::size_t i = 0; i < dim; ++i) out[i] = a[i] - b[i];
}

void Axpy(float alpha, const float* a, float* out, std::size_t dim) {
  for (std::size_t i = 0; i < dim; ++i) out[i] += alpha * a[i];
}

void ScaleInPlace(float* a, float alpha, std::size_t dim) {
  for (std::size_t i = 0; i < dim; ++i) a[i] *= alpha;
}

float NormalizeInPlace(float* a, std::size_t dim) {
  const float norm = Norm(a, dim);
  if (norm > 0.0f) ScaleInPlace(a, 1.0f / norm, dim);
  return norm;
}

}  // namespace rabitq
