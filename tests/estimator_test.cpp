// Property tests for the RaBitQ estimator -- the heart of the paper:
//   * unbiasedness of <x-bar,q-bar>/<o-bar,o> as an estimator of <o,q>
//     (Theorem 3.2),
//   * O(1/sqrt(B)) error decay with code length,
//   * error-bound coverage >= the paper's confidence at eps0 = 1.9
//     (Eq. 14/16, Section 5.2.4),
//   * single-code bitwise path == batch fast-scan path bit-for-bit,
//   * the biased <o-bar,q> ablation estimator really is biased (~0.8 slope).

#include <gtest/gtest.h>

#include <cmath>

#include "core/estimator.h"
#include "core/query.h"
#include "core/rabitq.h"
#include "linalg/vector_ops.h"
#include "util/prng.h"

namespace rabitq {
namespace {

std::vector<float> RandomVec(std::size_t dim, Rng* rng, float scale = 1.0f) {
  std::vector<float> v(dim);
  for (auto& x : v) x = static_cast<float>(rng->Gaussian()) * scale;
  return v;
}

struct Workload {
  RabitqEncoder encoder;
  RabitqCodeStore store;
  Matrix data;
  Matrix queries;
  std::vector<float> centroid;
};

void BuildWorkload(std::size_t dim, std::size_t n, std::size_t n_queries,
                   std::size_t total_bits, std::uint64_t seed, Workload* w) {
  Rng rng(seed);
  RabitqConfig config;
  config.total_bits = total_bits;
  config.seed = seed * 7 + 1;
  ASSERT_TRUE(w->encoder.Init(dim, config).ok());
  w->store.Init(w->encoder.total_bits());
  w->data.Reset(n, dim);
  w->queries.Reset(n_queries, dim);
  w->centroid = RandomVec(dim, &rng, 0.5f);
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = RandomVec(dim, &rng);
    std::copy_n(v.data(), dim, w->data.Row(i));
    ASSERT_TRUE(w->encoder
                    .EncodeAppend(w->data.Row(i), w->centroid.data(), &w->store)
                    .ok());
  }
  for (std::size_t q = 0; q < n_queries; ++q) {
    const auto v = RandomVec(dim, &rng);
    std::copy_n(v.data(), dim, w->queries.Row(q));
  }
}

TEST(EstimatorTest, SingleAndBatchPathsAgreeExactly) {
  Workload w;
  BuildWorkload(100, 200, 4, 128, 11, &w);
  Rng rng(99);
  for (std::size_t q = 0; q < w.queries.rows(); ++q) {
    QuantizedQuery qq;
    ASSERT_TRUE(PrepareQuery(w.encoder, w.queries.Row(q), w.centroid.data(),
                             &rng, &qq)
                    .ok());
    ASSERT_TRUE(qq.has_exact_luts);
    std::vector<float> batch_est(w.store.size());
    std::vector<float> batch_lb(w.store.size());
    EstimateAll(qq, w.store, 1.9f, batch_est.data(), batch_lb.data());
    for (std::size_t i = 0; i < w.store.size(); ++i) {
      const DistanceEstimate single =
          EstimateDistance(qq, w.store, i, 1.9f);
      // Same integer S and identical float assembly: bitwise equality.
      ASSERT_EQ(batch_est[i], single.dist_sq) << "code " << i;
      ASSERT_EQ(batch_lb[i], single.lower_bound_sq) << "code " << i;
    }
  }
}

TEST(EstimatorTest, EstimatesTrackTrueDistances) {
  Workload w;
  BuildWorkload(128, 300, 8, 128, 13, &w);
  Rng rng(5);
  double total_rel_err = 0.0;
  std::size_t count = 0;
  for (std::size_t q = 0; q < w.queries.rows(); ++q) {
    QuantizedQuery qq;
    ASSERT_TRUE(PrepareQuery(w.encoder, w.queries.Row(q), w.centroid.data(),
                             &rng, &qq)
                    .ok());
    for (std::size_t i = 0; i < w.store.size(); ++i) {
      const DistanceEstimate est = EstimateDistance(qq, w.store, i, 1.9f);
      const float truth =
          L2SqrDistance(w.queries.Row(q), w.data.Row(i), w.data.cols());
      total_rel_err += std::fabs(est.dist_sq - truth) / truth;
      ++count;
    }
  }
  // D-bit codes at D=128: the paper reports single-digit average relative
  // error on distances; 15% is a conservative regression threshold.
  EXPECT_LT(total_rel_err / count, 0.15);
}

TEST(EstimatorTest, InnerProductEstimatorIsUnbiased) {
  // Fix o and q; re-sample the rotation many times (fresh encoder seed) and
  // average the estimate of <o,q>. Must converge to the true inner product
  // (Theorem 3.2). Uses B_q = 8 to make query-quantization noise tiny; that
  // noise is itself unbiased (Eq. 18) so it does not shift the mean.
  const std::size_t dim = 64;
  Rng data_rng(17);
  auto o = RandomVec(dim, &data_rng);
  auto q = RandomVec(dim, &data_rng);
  NormalizeInPlace(o.data(), dim);
  NormalizeInPlace(q.data(), dim);
  const float true_ip = Dot(o.data(), q.data(), dim);

  Rng round_rng(31);
  const int trials = 300;
  double mean_est = 0.0;
  for (int t = 0; t < trials; ++t) {
    RabitqEncoder enc;
    RabitqConfig config;
    config.seed = 1000 + t;
    config.query_bits = 8;
    ASSERT_TRUE(enc.Init(dim, config).ok());
    RabitqCodeStore store(enc.total_bits());
    ASSERT_TRUE(enc.EncodeAppend(o.data(), nullptr, &store).ok());
    QuantizedQuery qq;
    ASSERT_TRUE(PrepareQuery(enc, q.data(), nullptr, &round_rng, &qq).ok());
    mean_est += EstimateDistance(qq, store, 0, 0.0f).ip;
  }
  mean_est /= trials;
  // Std dev of one estimate is ~1/sqrt(B)~0.11; 300 trials -> SE ~0.007.
  EXPECT_NEAR(mean_est, true_ip, 0.025);
}

TEST(EstimatorTest, BiasedEstimatorUnderestimatesByFactorOO) {
  // The ablation estimator <o-bar, q> concentrates near 0.8 * <o,q>
  // (Appendix F.2, Fig. 11) -- NOT near <o,q>.
  // Construct q = 0.8 o + 0.6 e (e orthonormal to o) so <o,q> = 0.8 exactly
  // and the bias (factor ~0.8) is far larger than Monte-Carlo noise.
  const std::size_t dim = 64;
  Rng data_rng(19);
  auto o = RandomVec(dim, &data_rng);
  NormalizeInPlace(o.data(), dim);
  auto e = RandomVec(dim, &data_rng);
  Axpy(-Dot(e.data(), o.data(), dim), o.data(), e.data(), dim);
  NormalizeInPlace(e.data(), dim);
  std::vector<float> q(dim);
  for (std::size_t j = 0; j < dim; ++j) q[j] = 0.8f * o[j] + 0.6f * e[j];
  const float true_ip = Dot(o.data(), q.data(), dim);
  ASSERT_NEAR(true_ip, 0.8f, 1e-4f);

  Rng round_rng(37);
  const int trials = 300;
  double mean_biased = 0.0;
  for (int t = 0; t < trials; ++t) {
    RabitqEncoder enc;
    RabitqConfig config;
    config.seed = 5000 + t;
    config.query_bits = 8;
    ASSERT_TRUE(enc.Init(dim, config).ok());
    RabitqCodeStore store(enc.total_bits());
    ASSERT_TRUE(enc.EncodeAppend(o.data(), nullptr, &store).ok());
    QuantizedQuery qq;
    ASSERT_TRUE(PrepareQuery(enc, q.data(), nullptr, &round_rng, &qq).ok());
    mean_biased += EstimateDistanceBiased(qq, store, 0).ip;
  }
  mean_biased /= trials;
  EXPECT_NEAR(mean_biased, 0.8 * true_ip, 0.03);
  EXPECT_GT(std::fabs(mean_biased - true_ip), 0.1);
}

class ErrorBoundParamTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ErrorBoundParamTest, OneSidedCoverageMatchesTheory) {
  // Eq. 14's failure event |X1| > eps0/sqrt(1-<o,q>^2) has one-sided
  // Gaussian-tail probability <= Phi(-1.9) ~ 2.9% for generic pairs, and
  // vanishes as eps0 grows. (The near-perfect *recall* of Section 5.2.4
  // additionally benefits from near neighbors' sqrt(1-<o,q>^2) shrink and
  // the k-th-best threshold; the raw per-pair coverage is what is testable
  // distribution-free.)
  const std::size_t total_bits = GetParam();
  Workload w;
  BuildWorkload(100, 500, 4, total_bits, total_bits, &w);
  Rng rng(7);
  auto coverage = [&](float eps0) {
    std::size_t covered = 0, total = 0;
    Rng qrng(7);
    for (std::size_t q = 0; q < w.queries.rows(); ++q) {
      QuantizedQuery qq;
      EXPECT_TRUE(PrepareQuery(w.encoder, w.queries.Row(q), w.centroid.data(),
                               &qrng, &qq)
                      .ok());
      for (std::size_t i = 0; i < w.store.size(); ++i) {
        const DistanceEstimate est =
            EstimateDistance(qq, w.store, i, eps0);
        const float truth =
            L2SqrDistance(w.queries.Row(q), w.data.Row(i), w.data.cols());
        if (est.lower_bound_sq <= truth) ++covered;
        ++total;
      }
    }
    return static_cast<double>(covered) / total;
  };
  const double cov_19 = coverage(1.9f);
  const double cov_30 = coverage(3.0f);
  EXPECT_GE(cov_19, 0.95);  // theory: >= 1 - 2.9% (minus B_q=4 noise)
  EXPECT_GE(cov_30, 0.995);
  EXPECT_GE(cov_30, cov_19);
}

TEST_P(ErrorBoundParamTest, NearNeighborsAlmostNeverPruned) {
  // For close pairs, sqrt(1 - <o,q>^2) shrinks the true error while the
  // bound stays full-width: the vectors that matter for recall are covered
  // with probability far beyond the generic 97%. Plant near-duplicates and
  // verify none of them has a lower bound above its true distance.
  const std::size_t total_bits = GetParam();
  const std::size_t dim = 100;
  RabitqConfig config;
  config.total_bits = total_bits;
  RabitqEncoder enc;
  ASSERT_TRUE(enc.Init(dim, config).ok());
  RabitqCodeStore store(enc.total_bits());

  Rng rng(total_bits + 3);
  const auto centroid = RandomVec(dim, &rng, 0.5f);
  const auto query = RandomVec(dim, &rng);
  Matrix neighbors(400, dim);
  for (std::size_t i = 0; i < neighbors.rows(); ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      // Points within ~5% of the query's scale.
      neighbors.At(i, j) =
          query[j] + 0.05f * static_cast<float>(rng.Gaussian());
    }
    ASSERT_TRUE(
        enc.EncodeAppend(neighbors.Row(i), centroid.data(), &store).ok());
  }
  QuantizedQuery qq;
  ASSERT_TRUE(PrepareQuery(enc, query.data(), centroid.data(), &rng, &qq).ok());
  std::size_t failures = 0;
  for (std::size_t i = 0; i < store.size(); ++i) {
    const DistanceEstimate est = EstimateDistance(qq, store, i, 1.9f);
    const float truth =
        L2SqrDistance(query.data(), neighbors.Row(i), dim);
    if (est.lower_bound_sq > truth) ++failures;
  }
  EXPECT_LE(failures, 2u) << "near neighbors must essentially never fail";
}

INSTANTIATE_TEST_SUITE_P(Bits, ErrorBoundParamTest,
                         ::testing::Values(128, 256, 512));

TEST(EstimatorTest, ErrorShrinksWithCodeLength) {
  // Thm 3.2: |error| = O(1/sqrt(B)). Quadrupling B should roughly halve the
  // average inner-product error; require at least a 1.5x improvement.
  const std::size_t dim = 120;
  auto mean_abs_ip_error = [&](std::size_t total_bits) {
    Workload w;
    BuildWorkload(dim, 400, 4, total_bits, 91, &w);
    Rng rng(3);
    double err = 0.0;
    std::size_t count = 0;
    for (std::size_t q = 0; q < w.queries.rows(); ++q) {
      QuantizedQuery qq;
      EXPECT_TRUE(PrepareQuery(w.encoder, w.queries.Row(q), w.centroid.data(),
                               &rng, &qq)
                      .ok());
      std::vector<float> query_res(dim);
      Subtract(w.queries.Row(q), w.centroid.data(), query_res.data(), dim);
      NormalizeInPlace(query_res.data(), dim);
      for (std::size_t i = 0; i < w.store.size(); ++i) {
        std::vector<float> data_res(dim);
        Subtract(w.data.Row(i), w.centroid.data(), data_res.data(), dim);
        NormalizeInPlace(data_res.data(), dim);
        const float true_ip = Dot(query_res.data(), data_res.data(), dim);
        const DistanceEstimate est =
            EstimateDistance(qq, w.store, i, 0.0f);
        err += std::fabs(est.ip - true_ip);
        ++count;
      }
    }
    return err / count;
  };
  const double err_128 = mean_abs_ip_error(128);
  const double err_512 = mean_abs_ip_error(512);
  EXPECT_LT(err_512, err_128 / 1.5);
}

TEST(EstimatorTest, IpErrorBoundFormula) {
  // Hand-check Eq. 16's half-width: the resident f_err factor times eps0.
  const auto ip_error_bound = [](float o_o, float eps0, std::size_t b) {
    CodePrimaries primaries;
    primaries.o_o = o_o;
    return DeriveFactors(primaries, Metric::kL2, b).f_err * eps0;
  };
  const float o_o = 0.8f;
  const float eps0 = 1.9f;
  const std::size_t b = 128;
  const float expected =
      std::sqrt((1.0f - 0.64f) / 0.64f) * 1.9f / std::sqrt(127.0f);
  EXPECT_NEAR(ip_error_bound(o_o, eps0, b), expected, 1e-6f);
  // Larger codes tighten the bound; weaker concentration widens it.
  EXPECT_LT(ip_error_bound(0.8f, 1.9f, 512), ip_error_bound(0.8f, 1.9f, 128));
  EXPECT_GT(ip_error_bound(0.5f, 1.9f, 128), ip_error_bound(0.9f, 1.9f, 128));
}

TEST(EstimatorTest, DegenerateCodesShortCircuit) {
  RabitqEncoder enc;
  ASSERT_TRUE(enc.Init(32, RabitqConfig{}).ok());
  RabitqCodeStore store(enc.total_bits());
  std::vector<float> centroid(32, 1.0f);
  // Data vector == centroid.
  ASSERT_TRUE(enc.EncodeAppend(centroid.data(), centroid.data(), &store).ok());
  Rng rng(1);
  std::vector<float> query(32, 3.0f);
  QuantizedQuery qq;
  ASSERT_TRUE(PrepareQuery(enc, query.data(), centroid.data(), &rng, &qq).ok());
  const DistanceEstimate est = EstimateDistance(qq, store, 0, 1.9f);
  // Distance is exactly ||query - centroid||^2 = 32 * 4.
  EXPECT_FLOAT_EQ(est.dist_sq, 128.0f);
  EXPECT_FLOAT_EQ(est.lower_bound_sq, 128.0f);

  // Query == centroid: distances are exactly dist_to_centroid^2.
  RabitqCodeStore store2(enc.total_bits());
  std::vector<float> far_point(32, 2.0f);
  ASSERT_TRUE(enc.EncodeAppend(far_point.data(), centroid.data(), &store2).ok());
  QuantizedQuery qq2;
  ASSERT_TRUE(
      PrepareQuery(enc, centroid.data(), centroid.data(), &rng, &qq2).ok());
  const DistanceEstimate est2 = EstimateDistance(qq2, store2, 0, 1.9f);
  EXPECT_FLOAT_EQ(est2.dist_sq, 32.0f);
}

TEST(EstimatorTest, LowerBoundNeverExceedsEstimate) {
  Workload w;
  BuildWorkload(64, 100, 2, 64, 23, &w);
  Rng rng(2);
  QuantizedQuery qq;
  ASSERT_TRUE(
      PrepareQuery(w.encoder, w.queries.Row(0), w.centroid.data(), &rng, &qq)
          .ok());
  for (std::size_t i = 0; i < w.store.size(); ++i) {
    const DistanceEstimate est = EstimateDistance(qq, w.store, i, 1.9f);
    EXPECT_LE(est.lower_bound_sq, est.dist_sq);
  }
}

}  // namespace
}  // namespace rabitq
