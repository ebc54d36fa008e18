// Unit and property tests for the linalg substrate: SIMD vector kernels
// cross-checked against scalar references, matrix algebra, random orthogonal
// sampling, Jacobi eigendecomposition, SVD and Procrustes.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "linalg/orthogonal.h"
#include "linalg/vector_ops.h"
#include "util/prng.h"

namespace rabitq {
namespace {

std::vector<float> RandomVec(std::size_t dim, Rng* rng, float scale = 1.0f) {
  std::vector<float> v(dim);
  for (auto& x : v) x = static_cast<float>(rng->Gaussian()) * scale;
  return v;
}

// ---------- vector kernels (SIMD vs scalar, parameterized over dim) ----------

class VectorOpsParamTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(VectorOpsParamTest, DotMatchesScalar) {
  const std::size_t dim = GetParam();
  Rng rng(dim * 31 + 1);
  const auto a = RandomVec(dim, &rng);
  const auto b = RandomVec(dim, &rng);
  const float simd = Dot(a.data(), b.data(), dim);
  const float ref = scalar::Dot(a.data(), b.data(), dim);
  EXPECT_NEAR(simd, ref, 1e-3f * (1.0f + std::fabs(ref)));
}

TEST_P(VectorOpsParamTest, L2SqrMatchesScalar) {
  const std::size_t dim = GetParam();
  Rng rng(dim * 31 + 2);
  const auto a = RandomVec(dim, &rng);
  const auto b = RandomVec(dim, &rng);
  const float simd = L2SqrDistance(a.data(), b.data(), dim);
  const float ref = scalar::L2SqrDistance(a.data(), b.data(), dim);
  EXPECT_NEAR(simd, ref, 1e-3f * (1.0f + ref));
}

INSTANTIATE_TEST_SUITE_P(Dims, VectorOpsParamTest,
                         ::testing::Values(1, 3, 7, 8, 15, 16, 17, 31, 32, 63,
                                           64, 100, 128, 255, 960));

TEST(VectorOpsTest, SubtractAxpyScale) {
  const std::size_t dim = 10;
  std::vector<float> a(dim, 3.0f), b(dim, 1.0f), out(dim);
  Subtract(a.data(), b.data(), out.data(), dim);
  for (const float v : out) EXPECT_FLOAT_EQ(v, 2.0f);
  Axpy(2.0f, b.data(), out.data(), dim);
  for (const float v : out) EXPECT_FLOAT_EQ(v, 4.0f);
  ScaleInPlace(out.data(), 0.25f, dim);
  for (const float v : out) EXPECT_FLOAT_EQ(v, 1.0f);
}

TEST(VectorOpsTest, NormalizeProducesUnitNorm) {
  Rng rng(8);
  auto v = RandomVec(50, &rng, 4.0f);
  const float original = Norm(v.data(), 50);
  const float returned = NormalizeInPlace(v.data(), 50);
  EXPECT_FLOAT_EQ(returned, original);
  EXPECT_NEAR(Norm(v.data(), 50), 1.0f, 1e-5f);
}

TEST(VectorOpsTest, NormalizeZeroVectorIsNoOp) {
  std::vector<float> v(8, 0.0f);
  EXPECT_FLOAT_EQ(NormalizeInPlace(v.data(), 8), 0.0f);
  for (const float x : v) EXPECT_FLOAT_EQ(x, 0.0f);
}

// ---------- matrix algebra ----------

TEST(MatrixTest, MatVecAgainstManual) {
  Matrix m(2, 3);
  float vals[6] = {1, 2, 3, 4, 5, 6};
  std::copy_n(vals, 6, m.data());
  const float v[3] = {1, 0, -1};
  float out[2];
  MatVec(m, v, out);
  EXPECT_FLOAT_EQ(out[0], -2.0f);
  EXPECT_FLOAT_EQ(out[1], -2.0f);
}

TEST(MatrixTest, MatTVecIsTransposeOfMatVec) {
  Rng rng(11);
  Matrix m(5, 7);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Gaussian());
  }
  Matrix mt;
  Transpose(m, &mt);
  const auto v = RandomVec(5, &rng);
  std::vector<float> a(7), b(7);
  MatTVec(m, v.data(), a.data());
  MatVec(mt, v.data(), b.data());
  for (std::size_t i = 0; i < 7; ++i) EXPECT_NEAR(a[i], b[i], 1e-4f);
}

TEST(MatrixTest, MatMulAgainstManual) {
  Matrix a(2, 2), b(2, 2), out;
  const float av[4] = {1, 2, 3, 4};
  const float bv[4] = {5, 6, 7, 8};
  std::copy_n(av, 4, a.data());
  std::copy_n(bv, 4, b.data());
  MatMul(a, b, &out);
  EXPECT_FLOAT_EQ(out.At(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(out.At(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(out.At(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(out.At(1, 1), 50.0f);
}

TEST(MatrixTest, MatTMulEqualsTransposeThenMul) {
  Rng rng(12);
  Matrix a(6, 4), b(6, 5);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>(rng.Gaussian());
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b.data()[i] = static_cast<float>(rng.Gaussian());
  }
  Matrix direct, at, reference;
  MatTMul(a, b, &direct);
  Transpose(a, &at);
  MatMul(at, b, &reference);
  EXPECT_LT(MaxAbsDiff(direct, reference), 1e-4f);
}

TEST(MatrixTest, TransposeTwiceIsIdentity) {
  Rng rng(13);
  Matrix m(4, 9);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Gaussian());
  }
  Matrix t, tt;
  Transpose(m, &t);
  Transpose(t, &tt);
  EXPECT_EQ(tt.rows(), m.rows());
  EXPECT_LT(MaxAbsDiff(m, tt), 0.0f + 1e-12f);
}

// ---------- random orthogonal sampling ----------

class OrthogonalParamTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OrthogonalParamTest, SampledMatrixIsOrthogonal) {
  const std::size_t dim = GetParam();
  Rng rng(dim);
  Matrix p;
  ASSERT_TRUE(SampleRandomOrthogonal(dim, &rng, &p).ok());
  EXPECT_TRUE(IsOrthogonal(p, 5e-4f));
}

TEST_P(OrthogonalParamTest, RotationPreservesNormsAndInnerProducts) {
  const std::size_t dim = GetParam();
  Rng rng(dim + 1000);
  Matrix p;
  ASSERT_TRUE(SampleRandomOrthogonal(dim, &rng, &p).ok());
  const auto a = RandomVec(dim, &rng);
  const auto b = RandomVec(dim, &rng);
  std::vector<float> pa(dim), pb(dim);
  MatVec(p, a.data(), pa.data());
  MatVec(p, b.data(), pb.data());
  EXPECT_NEAR(Norm(pa.data(), dim), Norm(a.data(), dim), 1e-3f);
  EXPECT_NEAR(Dot(pa.data(), pb.data(), dim), Dot(a.data(), b.data(), dim),
              1e-2f * dim);
}

INSTANTIATE_TEST_SUITE_P(Dims, OrthogonalParamTest,
                         ::testing::Values(2, 8, 64, 128, 256));

TEST(OrthogonalTest, GramSchmidtRejectsTooManyRows) {
  Matrix m(5, 3);
  EXPECT_FALSE(GramSchmidtRows(&m).ok());
}

TEST(OrthogonalTest, SampleRejectsBadArguments) {
  Rng rng(1);
  Matrix out;
  EXPECT_FALSE(SampleRandomOrthogonal(0, &rng, &out).ok());
  EXPECT_FALSE(SampleRandomOrthogonal(4, nullptr, &out).ok());
  EXPECT_FALSE(SampleRandomOrthogonal(4, &rng, nullptr).ok());
}

// ---------- eigendecomposition / SVD / Procrustes ----------

TEST(EigenTest, DiagonalMatrixEigenvalues) {
  Matrix a(3, 3);
  a.At(0, 0) = 3.0f;
  a.At(1, 1) = 1.0f;
  a.At(2, 2) = 2.0f;
  std::vector<float> values;
  Matrix vectors;
  ASSERT_TRUE(JacobiEigenSymmetric(a, &values, &vectors).ok());
  EXPECT_NEAR(values[0], 3.0f, 1e-5f);
  EXPECT_NEAR(values[1], 2.0f, 1e-5f);
  EXPECT_NEAR(values[2], 1.0f, 1e-5f);
}

TEST(EigenTest, ReconstructsSymmetricMatrix) {
  Rng rng(21);
  const std::size_t n = 12;
  Matrix g(n, n), a;
  for (std::size_t i = 0; i < g.size(); ++i) {
    g.data()[i] = static_cast<float>(rng.Gaussian());
  }
  MatTMul(g, g, &a);  // A = G^T G is symmetric PSD
  std::vector<float> values;
  Matrix vectors;
  ASSERT_TRUE(JacobiEigenSymmetric(a, &values, &vectors).ok());
  // Reconstruct A = V^T diag(w) V (rows of `vectors` are eigenvectors).
  Matrix scaled = vectors;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) scaled.At(i, j) *= values[i];
  }
  Matrix recon;
  MatTMul(vectors, scaled, &recon);
  EXPECT_LT(MaxAbsDiff(a, recon), 2e-2f * n);
}

class SvdParamTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SvdParamTest, ReconstructsInput) {
  const std::size_t n = GetParam();
  Rng rng(n * 17);
  Matrix a(n, n);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>(rng.Gaussian());
  }
  Matrix u, v;
  std::vector<float> s;
  ASSERT_TRUE(SvdSquare(a, &u, &s, &v).ok());
  // Singular values descending and non-negative.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    EXPECT_GE(s[i] + 1e-5f, s[i + 1]);
    EXPECT_GE(s[i], 0.0f);
  }
  // A ~= U diag(s) V^T.
  Matrix us = u;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) us.At(i, j) *= s[j];
  }
  Matrix vt, recon;
  Transpose(v, &vt);
  MatMul(us, vt, &recon);
  EXPECT_LT(MaxAbsDiff(a, recon), 5e-3f * n);
  EXPECT_TRUE(IsOrthogonal(u, 5e-3f));
  EXPECT_TRUE(IsOrthogonal(v, 5e-3f));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SvdParamTest, ::testing::Values(2, 5, 16, 40));

TEST(SvdTest, HandlesRankDeficientMatrix) {
  // Rank-1 matrix: outer product.
  const std::size_t n = 6;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a.At(i, j) = static_cast<float>((i + 1)) * static_cast<float>(j + 1);
    }
  }
  Matrix u, v;
  std::vector<float> s;
  ASSERT_TRUE(SvdSquare(a, &u, &s, &v).ok());
  EXPECT_GT(s[0], 1.0f);
  for (std::size_t i = 1; i < n; ++i) EXPECT_LT(s[i], 1e-2f);
  EXPECT_TRUE(IsOrthogonal(u, 1e-2f));
}

TEST(ProcrustesTest, RecoversKnownRotation) {
  // Build M = U S V^T from a random rotation R_true: the maximizer of
  // tr(R M) for M = R_true^T is R_true... construct directly instead:
  // choose M = R_true^T; the optimal R satisfies tr(R R_true^T) = n,
  // achieved only at R = R_true.
  const std::size_t n = 10;
  Rng rng(31);
  Matrix r_true;
  ASSERT_TRUE(SampleRandomOrthogonal(n, &rng, &r_true).ok());
  Matrix m, r;
  Transpose(r_true, &m);
  ASSERT_TRUE(ProcrustesRotation(m, &r).ok());
  EXPECT_LT(MaxAbsDiff(r, r_true), 5e-3f);
}

TEST(ProcrustesTest, OutputIsAlwaysOrthogonal) {
  const std::size_t n = 8;
  Rng rng(32);
  Matrix m(n, n), r;
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Gaussian());
  }
  ASSERT_TRUE(ProcrustesRotation(m, &r).ok());
  EXPECT_TRUE(IsOrthogonal(r, 1e-3f));
}

}  // namespace
}  // namespace rabitq
