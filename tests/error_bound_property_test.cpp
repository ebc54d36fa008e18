// Randomized property test for the paper's error-bound guarantee (Section
// 3.2, Eq. 14/16): over many (vector, query) pairs,
//   * the estimator is unbiased (Theorem 3.2): the mean signed error of the
//     <o, q> estimate is statistically zero;
//   * the true distance falls below lower_bound_sq only at a rate
//     consistent with epsilon0 -- rare at the paper's eps0 = 1.9, common at
//     a deliberately weak eps0 = 0.5 (the bound is tight, not vacuous);
//   * compacting the code store preserves every surviving code's estimate
//     bit-for-bit, so the lifecycle machinery cannot silently break
//     unbiasedness or the bound.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/estimator.h"
#include "core/query.h"
#include "core/rabitq.h"
#include "linalg/vector_ops.h"
#include "util/prng.h"

namespace rabitq {
namespace {

constexpr std::size_t kDim = 64;
constexpr std::size_t kNumVectors = 200;
constexpr std::size_t kNumQueries = 50;

class ErrorBoundPropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(encoder_.Init(kDim, RabitqConfig{}).ok());
    Rng rng(31337);
    centroid_.assign(kDim, 0.0f);
    for (auto& c : centroid_) c = static_cast<float>(rng.Gaussian()) * 0.5f;
    vectors_.resize(kNumVectors, std::vector<float>(kDim));
    store_.Init(encoder_.total_bits());
    for (auto& vec : vectors_) {
      for (auto& v : vec) v = static_cast<float>(rng.Gaussian());
      ASSERT_TRUE(
          encoder_.EncodeAppend(vec.data(), centroid_.data(), &store_).ok());
    }
    queries_.resize(kNumQueries, std::vector<float>(kDim));
    for (auto& q : queries_) {
      for (auto& v : q) v = static_cast<float>(rng.Gaussian());
    }
  }

  // Counts lower-bound violations (true < lb) at the given eps0 and
  // accumulates the signed <o, q> estimation error.
  void Sample(float epsilon0, std::size_t* violations, std::size_t* pairs,
              double* ip_error_sum) {
    Rng rng(777);
    QuantizedQuery qq;
    for (const auto& query : queries_) {
      ASSERT_TRUE(PrepareQuery(encoder_, query.data(), centroid_.data(), &rng,
                               &qq)
                      .ok());
      for (std::size_t i = 0; i < kNumVectors; ++i) {
        const DistanceEstimate est =
            EstimateDistance(qq, store_, i, epsilon0);
        const float true_dist =
            L2SqrDistance(vectors_[i].data(), query.data(), kDim);
        *violations += true_dist < est.lower_bound_sq;
        ++*pairs;
        // True <o, q> on the unit sphere around the centroid.
        std::vector<float> o(kDim), qr(kDim);
        Subtract(vectors_[i].data(), centroid_.data(), o.data(), kDim);
        Subtract(query.data(), centroid_.data(), qr.data(), kDim);
        const float no = Norm(o.data(), kDim), nq = Norm(qr.data(), kDim);
        if (no > 0.0f && nq > 0.0f) {
          const float true_ip = Dot(o.data(), qr.data(), kDim) / (no * nq);
          *ip_error_sum += est.ip - true_ip;
        }
      }
    }
  }

  RabitqEncoder encoder_;
  std::vector<float> centroid_;
  std::vector<std::vector<float>> vectors_;
  std::vector<std::vector<float>> queries_;
  RabitqCodeStore store_;
};

// The violation rate must scale with eps0 the way the theory says: the
// bound's half-width is ~eps0 standard deviations of the estimator error,
// so the one-sided violation rate tracks the Gaussian tail P(Z > eps0):
//   eps0 = 0.5 -> ~31%,  eps0 = 1.9 -> ~2.9%,  eps0 = 4.0 -> ~0.003%.
// The assertions bracket each rate loosely enough for 10k correlated pairs
// while still catching an off-by-sqrt(B) or sign regression (which shifts
// every rate by orders of magnitude).
TEST_F(ErrorBoundPropertyTest, ViolationRateTracksEpsilon) {
  const float eps0s[] = {0.5f, 1.9f, 4.0f};
  const double lo[] = {0.15, 0.0, 0.0};
  const double hi[] = {0.50, 0.06, 0.002};
  double prev_rate = 1.0;
  for (int i = 0; i < 3; ++i) {
    std::size_t violations = 0, pairs = 0;
    double ip_error_sum = 0.0;
    Sample(eps0s[i], &violations, &pairs, &ip_error_sum);
    ASSERT_EQ(pairs, kNumVectors * kNumQueries);
    const double rate = static_cast<double>(violations) / pairs;
    EXPECT_GE(rate, lo[i]) << "eps0=" << eps0s[i] << ": " << violations
                           << "/" << pairs;
    EXPECT_LE(rate, hi[i]) << "eps0=" << eps0s[i] << ": " << violations
                           << "/" << pairs;
    EXPECT_LE(rate, prev_rate) << "rate must fall as eps0 grows";
    prev_rate = rate;
  }
}

TEST_F(ErrorBoundPropertyTest, EstimatorIsUnbiased) {
  // The per-code quantization error is FIXED once P is sampled, so the
  // 10k pairs collapse to ~kNumVectors independent samples; average over
  // several encoder seeds to actually exercise the expectation over P.
  double total = 0.0;
  std::size_t total_pairs = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RabitqConfig config;
    config.seed = 0xC0FFEE00ULL + seed;
    RabitqEncoder enc;
    ASSERT_TRUE(enc.Init(kDim, config).ok());
    RabitqCodeStore store(enc.total_bits());
    for (const auto& vec : vectors_) {
      ASSERT_TRUE(
          enc.EncodeAppend(vec.data(), centroid_.data(), &store).ok());
    }
    Rng rng(555 + seed);
    QuantizedQuery qq;
    for (std::size_t q = 0; q < 10; ++q) {
      ASSERT_TRUE(PrepareQuery(enc, queries_[q].data(), centroid_.data(),
                               &rng, &qq)
                      .ok());
      for (std::size_t i = 0; i < kNumVectors; ++i) {
        const DistanceEstimate est =
            EstimateDistance(qq, store, i, 1.9f);
        std::vector<float> o(kDim), qr(kDim);
        Subtract(vectors_[i].data(), centroid_.data(), o.data(), kDim);
        Subtract(queries_[q].data(), centroid_.data(), qr.data(), kDim);
        const float no = Norm(o.data(), kDim), nq = Norm(qr.data(), kDim);
        if (no > 0.0f && nq > 0.0f) {
          total += est.ip - Dot(o.data(), qr.data(), kDim) / (no * nq);
          ++total_pairs;
        }
      }
    }
  }
  // ~800 effective samples of per-code error (std ~0.094) -> se ~0.0033;
  // 0.015 is a ~4.5 sigma acceptance band around zero.
  EXPECT_LT(std::fabs(total / total_pairs), 0.015);
}

TEST_F(ErrorBoundPropertyTest, CompactionPreservesEstimatesBitForBit) {
  // Tombstone a third of the codes, compact, and require every survivor's
  // estimate (and bound) to be bit-identical to the original store's.
  std::vector<std::uint8_t> dead(kNumVectors, 0);
  for (std::size_t i = 0; i < kNumVectors; i += 3) dead[i] = 1;
  RabitqCodeStore compacted;
  store_.CompactInto(dead.data(), &compacted);

  Rng rng(4242);
  QuantizedQuery qq;
  for (std::size_t q = 0; q < 5; ++q) {
    ASSERT_TRUE(PrepareQuery(encoder_, queries_[q].data(), centroid_.data(),
                             &rng, &qq)
                    .ok());
    std::vector<float> est_all(store_.size()), lb_all(store_.size());
    std::vector<float> est_live(compacted.size()), lb_live(compacted.size());
    EstimateAll(qq, store_, 1.9f, est_all.data(), lb_all.data());
    EstimateAll(qq, compacted, 1.9f, est_live.data(), lb_live.data());
    std::size_t j = 0;
    for (std::size_t i = 0; i < kNumVectors; ++i) {
      if (dead[i]) continue;
      EXPECT_EQ(est_all[i], est_live[j]) << "estimate drifted at code " << i;
      EXPECT_EQ(lb_all[i], lb_live[j]) << "bound drifted at code " << i;
      ++j;
    }
  }
}

TEST_F(ErrorBoundPropertyTest, ReEncodingIsDeterministic) {
  // The other half of "compaction can't break unbiasedness": re-encoding
  // the same vector against the same centroid reproduces the exact code,
  // so a rebuild-from-raw compaction strategy would also be lossless.
  RabitqCodeStore again(encoder_.total_bits());
  for (const auto& vec : vectors_) {
    ASSERT_TRUE(
        encoder_.EncodeAppend(vec.data(), centroid_.data(), &again).ok());
  }
  ASSERT_EQ(again.size(), store_.size());
  for (std::size_t i = 0; i < store_.size(); ++i) {
    std::vector<std::uint64_t> bits(store_.words_per_code());
    std::vector<std::uint64_t> again_bits(again.words_per_code());
    store_.UnpackPlane(i, 0, bits.data());
    again.UnpackPlane(i, 0, again_bits.data());
    for (std::size_t w = 0; w < store_.words_per_code(); ++w) {
      ASSERT_EQ(bits[w], again_bits[w]);
    }
    // dist_to_centroid, o_o and bit_count, through their resident images.
    EXPECT_EQ(store_.factors(i).f_cross, again.factors(i).f_cross);
    EXPECT_EQ(store_.factors(i).f_inv_oo, again.factors(i).f_inv_oo);
    EXPECT_EQ(store_.bit_count(i), again.bit_count(i));
    EXPECT_EQ(store_.factors(i), again.factors(i));
  }
}

}  // namespace
}  // namespace rabitq
