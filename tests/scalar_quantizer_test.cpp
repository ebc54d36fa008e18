// Tests for scalar quantization: SQ8 range learning / round trips, and the
// randomized uniform quantizer's unbiasedness (the Eq. 18 property RaBitQ's
// query quantization rests on).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "quant/scalar_quantizer.h"
#include "util/prng.h"

namespace rabitq {
namespace {

TEST(ScalarQuantizer8Test, RoundTripWithinStep) {
  Rng rng(1);
  Matrix data(200, 16);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.data()[i] = static_cast<float>(rng.Gaussian()) * 5.0f;
  }
  ScalarQuantizer8 sq;
  ASSERT_TRUE(sq.Train(data).ok());
  std::vector<std::uint8_t> code(16);
  std::vector<float> decoded(16);
  for (std::size_t i = 0; i < 20; ++i) {
    sq.Encode(data.Row(i), code.data());
    sq.Decode(code.data(), decoded.data());
    for (std::size_t j = 0; j < 16; ++j) {
      // Error bounded by one quantization step (range / 255).
      EXPECT_NEAR(decoded[j], data.At(i, j), 5.0f * 10.0f / 255.0f + 1e-4f);
    }
  }
}

TEST(ScalarQuantizer8Test, ConstantDimensionIsExact) {
  Matrix data(10, 2);
  for (std::size_t i = 0; i < 10; ++i) {
    data.At(i, 0) = 7.5f;                        // constant
    data.At(i, 1) = static_cast<float>(i);       // varying
  }
  ScalarQuantizer8 sq;
  ASSERT_TRUE(sq.Train(data).ok());
  std::uint8_t code[2];
  float decoded[2];
  sq.Encode(data.Row(3), code);
  sq.Decode(code, decoded);
  EXPECT_FLOAT_EQ(decoded[0], 7.5f);
}

TEST(ScalarQuantizer8Test, EstimateMatchesDecodedDistance) {
  Rng rng(2);
  Matrix data(100, 8);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.data()[i] = static_cast<float>(rng.Gaussian());
  }
  ScalarQuantizer8 sq;
  ASSERT_TRUE(sq.Train(data).ok());
  std::vector<float> query(8, 0.25f);
  std::uint8_t code[8];
  float decoded[8];
  sq.Encode(data.Row(0), code);
  sq.Decode(code, decoded);
  float manual = 0.0f;
  for (int j = 0; j < 8; ++j) {
    manual += (query[j] - decoded[j]) * (query[j] - decoded[j]);
  }
  EXPECT_NEAR(sq.EstimateSquaredDistance(query.data(), code), manual, 1e-5f);
}

TEST(ScalarQuantizer8Test, RejectsEmptyTrainingData) {
  ScalarQuantizer8 sq;
  EXPECT_FALSE(sq.Train(Matrix()).ok());
}

class RandomizedQuantizeParamTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomizedQuantizeParamTest, CodesStayInRange) {
  const int bits = GetParam();
  Rng rng(bits);
  std::vector<float> v(256);
  for (auto& x : v) x = static_cast<float>(rng.Gaussian());
  std::vector<std::uint8_t> codes(v.size());
  RandomizedQuantizeRange q;
  ASSERT_TRUE(RandomizedUniformQuantize(v.data(), v.size(), bits,
                                        rng.NextU64(), codes.data(), &q)
                  .ok());
  const int max_level = (1 << bits) - 1;
  std::uint32_t sum = 0;
  for (const auto code : codes) {
    EXPECT_LE(code, max_level);
    sum += code;
  }
  EXPECT_EQ(sum, q.sum);
}

TEST_P(RandomizedQuantizeParamTest, ReconstructionErrorBoundedByStep) {
  const int bits = GetParam();
  Rng rng(bits + 100);
  std::vector<float> v(128);
  for (auto& x : v) x = static_cast<float>(rng.Gaussian());
  std::vector<std::uint8_t> codes(v.size());
  RandomizedQuantizeRange q;
  ASSERT_TRUE(RandomizedUniformQuantize(v.data(), v.size(), bits,
                                        rng.NextU64(), codes.data(), &q)
                  .ok());
  for (std::size_t i = 0; i < v.size(); ++i) {
    const float recon = q.lo + q.step * static_cast<float>(codes[i]);
    EXPECT_NEAR(recon, v[i], q.step + 1e-6f);
  }
}

TEST_P(RandomizedQuantizeParamTest, RoundingIsUnbiased) {
  // Quantize the same vector many times with fresh keys; the mean
  // reconstruction must converge to the true value (Eq. 18's property).
  const int bits = GetParam();
  Rng rng(42);
  std::vector<float> v(16);
  for (auto& x : v) x = static_cast<float>(rng.Gaussian());
  std::vector<double> mean(v.size(), 0.0);
  std::vector<std::uint8_t> codes(v.size());
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    RandomizedQuantizeRange q;
    ASSERT_TRUE(RandomizedUniformQuantize(v.data(), v.size(), bits,
                                          rng.NextU64(), codes.data(), &q)
                    .ok());
    for (std::size_t i = 0; i < v.size(); ++i) {
      mean[i] += q.lo + q.step * static_cast<double>(codes[i]);
    }
  }
  // Tolerance scales with the step size (smaller for more bits) and the
  // Monte-Carlo noise.
  const float range = *std::max_element(v.begin(), v.end()) -
                      *std::min_element(v.begin(), v.end());
  const double step = range / ((1 << bits) - 1);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(mean[i] / trials, v[i], 4.0 * step / std::sqrt(trials) + 1e-4);
  }
}

TEST_P(RandomizedQuantizeParamTest, MatchesPlainReferenceAtEveryLength) {
  // The vector body and the scalar tail round identically: every length
  // (whole 8-lane groups, a tail, shorter than one group) matches the
  // plain formula level for level.
  const int bits = GetParam();
  const int levels = (1 << bits) - 1;
  Rng rng(bits + 7);
  for (std::size_t dim : {1u, 5u, 8u, 13u, 64u, 131u}) {
    std::vector<float> v(dim);
    for (auto& x : v) x = static_cast<float>(rng.Gaussian());
    const std::uint64_t key = rng.NextU64();
    std::vector<std::uint8_t> codes(dim);
    RandomizedQuantizeRange q;
    ASSERT_TRUE(
        RandomizedUniformQuantize(v.data(), dim, bits, key, codes.data(), &q)
            .ok());
    const float lo = *std::min_element(v.begin(), v.end());
    const float hi = *std::max_element(v.begin(), v.end());
    EXPECT_EQ(q.lo, lo);
    std::uint32_t sum = 0;
    for (std::size_t i = 0; i < dim; ++i) {
      std::uint8_t want = 0;
      if (dim > 1) {
        const float step = (hi - lo) / static_cast<float>(levels);
        const float scaled = (v[i] - lo) / step;
        const int level = static_cast<int>(
            scaled + DitherUniform(key, static_cast<std::uint32_t>(i)));
        want = static_cast<std::uint8_t>(std::clamp(level, 0, levels));
      }
      ASSERT_EQ(codes[i], want) << "dim " << dim << " entry " << i;
      sum += want;
    }
    EXPECT_EQ(q.sum, sum);
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, RandomizedQuantizeParamTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

TEST(RandomizedQuantizeTest, ConstantVectorQuantizesToZeroLevels) {
  std::vector<float> v(32, 3.0f);
  std::vector<std::uint8_t> codes(v.size(), 0xFF);
  RandomizedQuantizeRange q;
  ASSERT_TRUE(
      RandomizedUniformQuantize(v.data(), v.size(), 4, 1, codes.data(), &q)
          .ok());
  EXPECT_EQ(q.sum, 0u);
  EXPECT_FLOAT_EQ(q.lo, 3.0f);
  EXPECT_FLOAT_EQ(q.step, 0.0f);
  for (const auto code : codes) EXPECT_EQ(code, 0);
}

TEST(RandomizedQuantizeTest, RejectsBadArguments) {
  std::vector<float> v(4, 1.0f);
  std::vector<std::uint8_t> codes(4);
  RandomizedQuantizeRange q;
  EXPECT_FALSE(
      RandomizedUniformQuantize(v.data(), 4, 0, 1, codes.data(), &q).ok());
  EXPECT_FALSE(
      RandomizedUniformQuantize(v.data(), 4, 9, 1, codes.data(), &q).ok());
  EXPECT_FALSE(
      RandomizedUniformQuantize(nullptr, 4, 4, 1, codes.data(), &q).ok());
  EXPECT_FALSE(
      RandomizedUniformQuantize(v.data(), 0, 4, 1, codes.data(), &q).ok());
  EXPECT_FALSE(RandomizedUniformQuantize(v.data(), 4, 4, 1, nullptr, &q).ok());
  EXPECT_FALSE(
      RandomizedUniformQuantize(v.data(), 4, 4, 1, codes.data(), nullptr)
          .ok());
}

// --- The counter-keyed dither stream ---------------------------------------
// Theorem 3.3 needs the dithers uniform on [0, 1) and independent. Keys are
// drawn once per quantized vector, so independence must hold both along a
// key's stream (across dimensions) and between streams of neighbouring keys.

TEST(DitherStreamTest, UniformOverSixteenBins) {
  // Chi-square with 15 degrees of freedom: the 0.999 quantile is 37.7.
  constexpr int kBins = 16;
  constexpr std::uint32_t kDims = 128;
  constexpr int kKeys = 512;  // 65536 draws, 4096 expected per bin
  std::vector<double> counts(kBins, 0.0);
  Rng rng(2024);
  for (int k = 0; k < kKeys; ++k) {
    const std::uint64_t key = rng.NextU64();
    for (std::uint32_t i = 0; i < kDims; ++i) {
      const float u = DitherUniform(key, i);
      ASSERT_GE(u, 0.0f);
      ASSERT_LT(u, 1.0f);
      counts[static_cast<int>(u * kBins)] += 1.0;
    }
  }
  const double expected = static_cast<double>(kKeys) * kDims / kBins;
  double chi2 = 0.0;
  for (const double c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 37.7);
}

// Pearson correlation of paired samples.
double Correlation(const std::vector<double>& a, const std::vector<double>& b) {
  const double n = static_cast<double>(a.size());
  double ma = 0.0, mb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= n;
  mb /= n;
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    cov += (a[i] - ma) * (b[i] - mb);
    va += (a[i] - ma) * (a[i] - ma);
    vb += (b[i] - mb) * (b[i] - mb);
  }
  return cov / std::sqrt(va * vb);
}

TEST(DitherStreamTest, NoLagOneCorrelationAcrossDimensions) {
  // 65536 pairs: the sample correlation of independent uniforms has
  // standard deviation 1/sqrt(n) ~ 0.004; 0.02 is five of those.
  std::vector<double> a, b;
  Rng rng(7);
  for (int k = 0; k < 512; ++k) {
    const std::uint64_t key = rng.NextU64();
    for (std::uint32_t i = 0; i < 128; ++i) {
      a.push_back(DitherUniform(key, i));
      b.push_back(DitherUniform(key, i + 1));
    }
  }
  EXPECT_LT(std::abs(Correlation(a, b)), 0.02);
}

TEST(DitherStreamTest, NoCorrelationAcrossAdjacentKeys) {
  // Keys one apart in either half of the 64-bit key, at the same
  // dimension: their streams must look unrelated.
  for (const std::uint64_t delta : {std::uint64_t{1}, std::uint64_t{1} << 32}) {
    std::vector<double> a, b;
    Rng rng(11);
    for (int k = 0; k < 512; ++k) {
      const std::uint64_t key = rng.NextU64();
      for (std::uint32_t i = 0; i < 128; ++i) {
        a.push_back(DitherUniform(key, i));
        b.push_back(DitherUniform(key + delta, i));
      }
    }
    EXPECT_LT(std::abs(Correlation(a, b)), 0.02) << "delta " << delta;
  }
  // Consecutive keys from zero (the worst case for a weak mix): still
  // uncorrelated at every dimension.
  std::vector<double> a, b;
  for (std::uint64_t key = 0; key < 4096; ++key) {
    for (std::uint32_t i = 0; i < 16; ++i) {
      a.push_back(DitherUniform(key, i));
      b.push_back(DitherUniform(key + 1, i));
    }
  }
  EXPECT_LT(std::abs(Correlation(a, b)), 0.02);
}

}  // namespace
}  // namespace rabitq
