// Dense float vector kernels (inner product, squared L2, norms, BLAS-1 style
// helpers). AVX2+FMA implementations are selected at compile time when the
// target supports them, with scalar fallbacks kept bit-compatible enough for
// the tests to cross-check (identical reduction order is not guaranteed, so
// comparisons use relative tolerances).

#ifndef RABITQ_LINALG_VECTOR_OPS_H_
#define RABITQ_LINALG_VECTOR_OPS_H_

#include <cstddef>

namespace rabitq {

/// <a, b>.
float Dot(const float* a, const float* b, std::size_t dim);

/// ||a - b||^2.
float L2SqrDistance(const float* a, const float* b, std::size_t dim);

/// ||a||^2.
float SquaredNorm(const float* a, std::size_t dim);

/// ||a||.
float Norm(const float* a, std::size_t dim);

/// out = a - b.
void Subtract(const float* a, const float* b, float* out, std::size_t dim);

/// out += alpha * a.
void Axpy(float alpha, const float* a, float* out, std::size_t dim);

/// a *= alpha in place.
void ScaleInPlace(float* a, float alpha, std::size_t dim);

/// Normalizes `a` to unit L2 norm in place; returns the original norm.
/// If the norm is zero the vector is left unchanged and 0 is returned.
float NormalizeInPlace(float* a, std::size_t dim);

/// Portable reference implementations (used by tests to validate the
/// SIMD paths; also the fallback on non-AVX2 targets).
namespace scalar {
float Dot(const float* a, const float* b, std::size_t dim);
float L2SqrDistance(const float* a, const float* b, std::size_t dim);
}  // namespace scalar

}  // namespace rabitq

#endif  // RABITQ_LINALG_VECTOR_OPS_H_
