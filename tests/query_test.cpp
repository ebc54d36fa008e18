// Tests for query-phase preprocessing: bit planes reassemble the quantized
// values, LUTs equal nibble sums, Eq. 20 constants are consistent, and the
// <x-bar, q-bar> identity holds against a from-scratch computation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include "core/query.h"
#include "linalg/vector_ops.h"
#include "quant/scalar_quantizer.h"
#include "util/bit_ops.h"
#include "util/prng.h"

namespace rabitq {
namespace {

std::vector<float> RandomVec(std::size_t dim, Rng* rng) {
  std::vector<float> v(dim);
  for (auto& x : v) x = static_cast<float>(rng->Gaussian());
  return v;
}

class QueryParamTest : public ::testing::TestWithParam<int> {};

TEST_P(QueryParamTest, BitPlanesReassembleQuantizedValues) {
  const int bq = GetParam();
  RabitqEncoder enc;
  RabitqConfig config;
  config.query_bits = bq;
  ASSERT_TRUE(enc.Init(100, config).ok());
  Rng rng(bq * 11);
  const auto query = RandomVec(100, &rng);
  QuantizedQuery qq;
  ASSERT_TRUE(PrepareQuery(enc, query.data(), nullptr, &rng, &qq).ok());
  ASSERT_EQ(qq.qu.size(), enc.total_bits());
  for (std::size_t i = 0; i < qq.qu.size(); ++i) {
    std::uint8_t reassembled = 0;
    for (int j = 0; j < bq; ++j) {
      if (GetBit(qq.Plane(j), i)) reassembled |= (1u << j);
    }
    ASSERT_EQ(reassembled, qq.qu[i]) << "entry " << i;
  }
}

TEST_P(QueryParamTest, SumMatchesEntries) {
  const int bq = GetParam();
  RabitqEncoder enc;
  RabitqConfig config;
  config.query_bits = bq;
  ASSERT_TRUE(enc.Init(77, config).ok());
  Rng rng(bq * 13);
  const auto query = RandomVec(77, &rng);
  QuantizedQuery qq;
  ASSERT_TRUE(PrepareQuery(enc, query.data(), nullptr, &rng, &qq).ok());
  std::uint32_t sum = 0;
  for (const auto v : qq.qu) sum += v;
  EXPECT_EQ(sum, qq.sum_qu);
}

INSTANTIATE_TEST_SUITE_P(QueryBits, QueryParamTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

TEST(QueryTest, LutsEqualNibbleSums) {
  RabitqEncoder enc;
  ASSERT_TRUE(enc.Init(64, RabitqConfig{}).ok());
  Rng rng(3);
  const auto query = RandomVec(64, &rng);
  QuantizedQuery qq;
  ASSERT_TRUE(PrepareQuery(enc, query.data(), nullptr, &rng, &qq).ok());
  ASSERT_TRUE(qq.has_exact_luts);
  const std::size_t segments = enc.total_bits() / 4;
  ASSERT_EQ(qq.luts.size(), segments * 16);
  for (std::size_t t = 0; t < segments; ++t) {
    for (int pattern = 0; pattern < 16; ++pattern) {
      int expected = 0;
      for (int bit = 0; bit < 4; ++bit) {
        if (pattern & (1 << bit)) expected += qq.qu[t * 4 + bit];
      }
      ASSERT_EQ(qq.luts[t * 16 + pattern], expected);
    }
  }
}

TEST(QueryTest, NoExactLutsAboveBq6) {
  RabitqEncoder enc;
  RabitqConfig config;
  config.query_bits = 8;  // 4 * 255 > 255: u8 LUTs would clip
  ASSERT_TRUE(enc.Init(64, config).ok());
  Rng rng(4);
  const auto query = RandomVec(64, &rng);
  QuantizedQuery qq;
  ASSERT_TRUE(PrepareQuery(enc, query.data(), nullptr, &rng, &qq).ok());
  EXPECT_FALSE(qq.has_exact_luts);
  EXPECT_TRUE(qq.luts.empty());
}

TEST(QueryTest, XbarQbarIdentityAgainstFromScratch) {
  // Eq. 20: for any code x_b,
  //   <x-bar, q-bar> = ip_scale*<x_b,qu> + pop_scale*popcount + bias
  // where x-bar[i] = +-1/sqrt(B) and q-bar = lo + step*qu.
  RabitqEncoder enc;
  ASSERT_TRUE(enc.Init(96, RabitqConfig{}).ok());
  const std::size_t b = enc.total_bits();
  Rng rng(5);
  const auto query = RandomVec(96, &rng);
  QuantizedQuery qq;
  ASSERT_TRUE(PrepareQuery(enc, query.data(), nullptr, &rng, &qq).ok());

  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::uint64_t> code(WordsForBits(b), 0);
    for (std::size_t i = 0; i < b; ++i) {
      if (rng.NextU64() & 1) SetBit(code.data(), i);
    }
    const std::uint32_t pop = PopCount(code.data(), code.size());
    std::uint32_t s = 0;
    float direct = 0.0f;
    const float scale = 1.0f / std::sqrt(static_cast<float>(b));
    for (std::size_t i = 0; i < b; ++i) {
      const float x_bar = GetBit(code.data(), i) ? scale : -scale;
      const float q_bar = qq.lo + qq.step * static_cast<float>(qq.qu[i]);
      direct += x_bar * q_bar;
      if (GetBit(code.data(), i)) s += qq.qu[i];
    }
    const float via_constants = qq.ip_scale * static_cast<float>(s) +
                                qq.pop_scale * static_cast<float>(pop) +
                                qq.bias;
    EXPECT_NEAR(via_constants, direct, 1e-3f);
  }
}

TEST(QueryTest, QuantizationErrorShrinksWithBq) {
  // ||q-bar - q'|| must drop monotonically (in expectation) as B_q grows;
  // check 1 vs 4 vs 8 with generous margins.
  RabitqEncoder enc1, enc4, enc8;
  RabitqConfig c1, c4, c8;
  c1.query_bits = 1;
  c4.query_bits = 4;
  c8.query_bits = 8;
  ASSERT_TRUE(enc1.Init(128, c1).ok());
  ASSERT_TRUE(enc4.Init(128, c4).ok());
  ASSERT_TRUE(enc8.Init(128, c8).ok());

  Rng rng(6);
  double err1 = 0.0, err4 = 0.0, err8 = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    const auto query = RandomVec(128, &rng);
    std::vector<float> normalized(query);
    NormalizeInPlace(normalized.data(), 128);
    auto reconstruction_error = [&](RabitqEncoder& enc,
                                    int /*bits*/) -> double {
      QuantizedQuery qq;
      EXPECT_TRUE(PrepareQuery(enc, query.data(), nullptr, &rng, &qq).ok());
      std::vector<float> rotated(enc.total_bits());
      enc.rotator().InverseRotate(normalized.data(), rotated.data());
      double err = 0.0;
      for (std::size_t i = 0; i < rotated.size(); ++i) {
        const double recon = qq.lo + qq.step * static_cast<double>(qq.qu[i]);
        err += (recon - rotated[i]) * (recon - rotated[i]);
      }
      return err;
    };
    err1 += reconstruction_error(enc1, 1);
    err4 += reconstruction_error(enc4, 4);
    err8 += reconstruction_error(enc8, 8);
  }
  EXPECT_LT(err4, err1 * 0.2);
  EXPECT_LT(err8, err4 * 0.2);
}

TEST(QueryTest, RotatedFastPathMatchesDirectPath) {
  // PrepareQueryFromRotated (P^T q precomputed once, P^T c from the index)
  // must produce the same quantized query as the direct PrepareQuery, up to
  // float error in q'; with identical rng streams the randomized rounding
  // sees the same inputs and the codes must match exactly.
  RabitqEncoder enc;
  ASSERT_TRUE(enc.Init(96, RabitqConfig{}).ok());
  const std::size_t b = enc.total_bits();
  Rng rng(10);
  const auto query = RandomVec(96, &rng);
  const auto centroid = RandomVec(96, &rng);

  Rng rng_a(55), rng_b(55);
  QuantizedQuery direct;
  ASSERT_TRUE(
      PrepareQuery(enc, query.data(), centroid.data(), &rng_a, &direct).ok());

  std::vector<float> rotated_query(b), rotated_centroid(b);
  RotateQueryOnce(enc, query.data(), rotated_query.data());
  enc.rotator().InverseRotate(centroid.data(), rotated_centroid.data());
  std::vector<float> residual(96);
  Subtract(query.data(), centroid.data(), residual.data(), 96);
  const float q_dist = Norm(residual.data(), 96);
  QuantizedQuery fast;
  ASSERT_TRUE(PrepareQueryFromRotated(enc, rotated_query.data(),
                                      rotated_centroid.data(), q_dist, &rng_b,
                                      &fast)
                  .ok());

  EXPECT_FLOAT_EQ(fast.q_dist, direct.q_dist);
  EXPECT_NEAR(fast.lo, direct.lo, 1e-4f);
  EXPECT_NEAR(fast.step, direct.step, 1e-5f);
  // Identical rounding decisions given float-identical inputs is not
  // guaranteed (q' differs in the last ulp), so compare the quantized
  // values within one level and the derived constants loosely.
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < b; ++i) {
    mismatches += std::abs(int(fast.qu[i]) - int(direct.qu[i])) > 1 ? 1 : 0;
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_NEAR(fast.ip_scale, direct.ip_scale, 1e-6f);
}

TEST(QueryTest, RotatedFastPathRejectsBadArguments) {
  RabitqEncoder enc;
  ASSERT_TRUE(enc.Init(32, RabitqConfig{}).ok());
  Rng rng(1);
  std::vector<float> rotated(enc.total_bits(), 0.0f);
  QuantizedQuery qq;
  EXPECT_FALSE(
      PrepareQueryFromRotated(enc, nullptr, nullptr, 1.0f, &rng, &qq).ok());
  EXPECT_FALSE(PrepareQueryFromRotated(enc, rotated.data(), nullptr, -1.0f,
                                       &rng, &qq)
                   .ok());
  // q_dist == 0 is the degenerate-at-centroid case, allowed.
  EXPECT_TRUE(PrepareQueryFromRotated(enc, rotated.data(), nullptr, 0.0f, &rng,
                                      &qq)
                  .ok());
  EXPECT_FLOAT_EQ(qq.q_dist, 0.0f);
}

TEST(QueryTest, DegenerateQueryAtCentroid) {
  RabitqEncoder enc;
  ASSERT_TRUE(enc.Init(32, RabitqConfig{}).ok());
  Rng rng(7);
  std::vector<float> point(32, 2.0f);
  QuantizedQuery qq;
  ASSERT_TRUE(PrepareQuery(enc, point.data(), point.data(), &rng, &qq).ok());
  EXPECT_FLOAT_EQ(qq.q_dist, 0.0f);
}

// Plain-C++ reference of the per-list preparation tail, from the public
// pieces only: the rotated unit residual the call left in unit_scratch and
// the dither stream under the key the call drew (the first NextU64 of its
// generator). Built with none of the library's SIMD, it pins the AVX2
// rounding, plane and LUT builders in a native build and the scalar
// fallbacks in a portable one.
struct ReferenceQuery {
  std::vector<std::uint8_t> qu;
  std::vector<std::uint64_t> planes;
  std::vector<std::uint8_t> luts;
};

ReferenceQuery BuildReference(const QuantizedQuery& qq, std::uint64_t key) {
  const std::size_t b = qq.total_bits;
  const float* unit = qq.unit_scratch.data();
  float lo = unit[0];
  float hi = unit[0];
  for (std::size_t i = 1; i < b; ++i) {
    lo = std::min(lo, unit[i]);
    hi = std::max(hi, unit[i]);
  }
  const int levels = (1 << qq.query_bits) - 1;
  const float step = (hi - lo) / static_cast<float>(levels);
  ReferenceQuery ref;
  ref.qu.resize(b);
  for (std::size_t i = 0; i < b; ++i) {
    const float scaled = (unit[i] - lo) / step;
    const int level = static_cast<int>(
        scaled + DitherUniform(key, static_cast<std::uint32_t>(i)));
    ref.qu[i] = static_cast<std::uint8_t>(std::clamp(level, 0, levels));
  }
  ref.planes.assign(static_cast<std::size_t>(qq.query_bits) * qq.num_words,
                    0);
  for (std::size_t i = 0; i < b; ++i) {
    for (int j = 0; j < qq.query_bits; ++j) {
      if ((ref.qu[i] >> j) & 1) SetBit(ref.planes.data() + j * qq.num_words, i);
    }
  }
  if (4 * levels <= 255) {
    ref.luts.resize(b / 4 * 16);
    for (std::size_t t = 0; t < b / 4; ++t) {
      for (int pattern = 0; pattern < 16; ++pattern) {
        int sum = 0;
        for (int bit = 0; bit < 4; ++bit) {
          if (pattern & (1 << bit)) sum += ref.qu[4 * t + bit];
        }
        ref.luts[t * 16 + pattern] = static_cast<std::uint8_t>(sum);
      }
    }
  }
  return ref;
}

TEST(QueryTest, PreparationMatchesPlainReferenceAtEveryBq) {
  for (int bq = 1; bq <= 8; ++bq) {
    for (const std::size_t dim : {64u, 100u, 200u}) {
      RabitqEncoder enc;
      RabitqConfig config;
      config.query_bits = bq;
      ASSERT_TRUE(enc.Init(dim, config).ok());
      const std::size_t b = enc.total_bits();
      Rng data_rng(bq * 100 + dim);
      const auto query = RandomVec(dim, &data_rng);
      const auto centroid = RandomVec(dim, &data_rng);
      std::vector<float> rotated_query(b), rotated_centroid(b);
      RotateQueryOnce(enc, query.data(), rotated_query.data());
      RotateQueryOnce(enc, centroid.data(), rotated_centroid.data());
      std::vector<float> residual(dim);
      Subtract(query.data(), centroid.data(), residual.data(), dim);
      const float q_dist = Norm(residual.data(), dim);

      const std::uint64_t seed = MixSeed(bq, dim);
      Rng rng(seed);
      QuantizedQuery fast;
      ASSERT_TRUE(PrepareQueryFromRotated(enc, rotated_query.data(),
                                          rotated_centroid.data(), q_dist,
                                          &rng, &fast)
                      .ok());
      Rng direct_rng(seed);
      QuantizedQuery direct;
      ASSERT_TRUE(PrepareQuery(enc, query.data(), centroid.data(),
                               &direct_rng, &direct)
                      .ok());
      for (const QuantizedQuery* qq : {&fast, &direct}) {
        ASSERT_EQ(qq->unit_scratch.size(), b);
        const ReferenceQuery ref = BuildReference(*qq, Rng(seed).NextU64());
        const std::string where = "B_q " + std::to_string(bq) + " dim " +
                                  std::to_string(dim) +
                                  (qq == &fast ? " rotated" : " direct");
        ASSERT_TRUE(std::equal(qq->qu.begin(), qq->qu.end(), ref.qu.begin(),
                               ref.qu.end()))
            << where;
        ASSERT_TRUE(std::equal(qq->bit_planes.begin(), qq->bit_planes.end(),
                               ref.planes.begin(), ref.planes.end()))
            << where;
        EXPECT_EQ(qq->has_exact_luts, !ref.luts.empty()) << where;
        ASSERT_TRUE(std::equal(qq->luts.begin(), qq->luts.end(),
                               ref.luts.begin(), ref.luts.end()))
            << where;
      }
    }
  }
}

// Every field a preparation writes, compared exactly (the workspace too:
// it holds q' after a real preparation and zeros after a degenerate one).
void ExpectSameQuery(const QuantizedQuery& a, const QuantizedQuery& b,
                     const std::string& where) {
  EXPECT_EQ(a.total_bits, b.total_bits) << where;
  EXPECT_EQ(a.num_words, b.num_words) << where;
  EXPECT_EQ(a.query_bits, b.query_bits) << where;
  EXPECT_EQ(a.q_dist, b.q_dist) << where;
  EXPECT_EQ(a.metric, b.metric) << where;
  EXPECT_EQ(a.q_base, b.q_base) << where;
  EXPECT_EQ(a.lo, b.lo) << where;
  EXPECT_EQ(a.step, b.step) << where;
  EXPECT_EQ(a.sum_qu, b.sum_qu) << where;
  EXPECT_EQ(a.ip_scale, b.ip_scale) << where;
  EXPECT_EQ(a.pop_scale, b.pop_scale) << where;
  EXPECT_EQ(a.bias, b.bias) << where;
  EXPECT_EQ(a.kq, b.kq) << where;
  EXPECT_EQ(a.has_exact_luts, b.has_exact_luts) << where;
  EXPECT_TRUE(a.qu == b.qu) << where;
  EXPECT_TRUE(a.bit_planes == b.bit_planes) << where;
  EXPECT_TRUE(a.luts == b.luts) << where;
  EXPECT_TRUE(a.unit_scratch == b.unit_scratch) << where;
}

TEST(QueryTest, ReusedQueryMatchesFreshOne) {
  // One QuantizedQuery reused the way the scan's scratch is -- across a
  // degenerate query, a B_q = 8 query (no LUTs) and a B_q = 4 query, on
  // both preparation paths -- must end each step exactly like a fresh one.
  RabitqEncoder enc;
  ASSERT_TRUE(enc.Init(96, RabitqConfig{}).ok());
  const std::size_t b = enc.total_bits();
  Rng rng(31);
  const auto query = RandomVec(96, &rng);
  const auto centroid = RandomVec(96, &rng);
  std::vector<float> rotated_query(b), rotated_centroid(b);
  RotateQueryOnce(enc, query.data(), rotated_query.data());
  RotateQueryOnce(enc, centroid.data(), rotated_centroid.data());
  std::vector<float> residual(96);
  Subtract(query.data(), centroid.data(), residual.data(), 96);
  const float q_dist = Norm(residual.data(), 96);

  struct Step {
    const char* name;
    bool direct;
    const float* centroid;  // direct path: raw; rotated path: rotated
    float q_dist;           // rotated path only
    int bits;
  };
  const Step steps[] = {
      {"rotated B_q 4", false, rotated_centroid.data(), q_dist, 4},
      {"direct degenerate", true, query.data(), 0.0f, 0},
      {"rotated B_q 8", false, rotated_centroid.data(), q_dist, 8},
      {"rotated degenerate", false, rotated_query.data(), 0.0f, 0},
      {"direct B_q 8", true, centroid.data(), 0.0f, 8},
      {"rotated B_q 4 again", false, rotated_centroid.data(), q_dist, 4},
      {"direct B_q 4", true, centroid.data(), 0.0f, 4},
  };
  QuantizedQuery reused;
  for (std::size_t k = 0; k < std::size(steps); ++k) {
    const Step& step = steps[k];
    auto prepare = [&](QuantizedQuery* out) {
      Rng step_rng(MixSeed(5, k));
      return step.direct
                 ? PrepareQuery(enc, query.data(), step.centroid, &step_rng,
                                out, step.bits)
                 : PrepareQueryFromRotated(enc, rotated_query.data(),
                                           step.centroid, step.q_dist,
                                           &step_rng, out, step.bits);
    };
    ASSERT_TRUE(prepare(&reused).ok()) << step.name;
    QuantizedQuery fresh;
    ASSERT_TRUE(prepare(&fresh).ok()) << step.name;
    ExpectSameQuery(reused, fresh, step.name);
  }
}

TEST(QueryTest, RejectsNullArguments) {
  RabitqEncoder enc;
  ASSERT_TRUE(enc.Init(32, RabitqConfig{}).ok());
  Rng rng(8);
  std::vector<float> q(32, 1.0f);
  QuantizedQuery qq;
  EXPECT_FALSE(PrepareQuery(enc, nullptr, nullptr, &rng, &qq).ok());
  EXPECT_FALSE(PrepareQuery(enc, q.data(), nullptr, nullptr, &qq).ok());
  EXPECT_FALSE(PrepareQuery(enc, q.data(), nullptr, &rng, nullptr).ok());
}

}  // namespace
}  // namespace rabitq
