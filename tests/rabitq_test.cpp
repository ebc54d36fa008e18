// Tests for the RaBitQ encoder and code store: the encoder's primaries match
// their definitions (<o-bar,o> = ||P^T o||_1 / sqrt(B), popcounts, residual
// norms) and the store keeps exactly their DeriveFactors image,
// reconstruction geometry, degenerate vectors, and the paper's
// concentration facts (E[<o-bar,o>] ~= 0.8 for the sampled rotation family),
// and the packed planes that are the store's only copy of the bits.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/rabitq.h"
#include "index/ivf.h"
#include "linalg/vector_ops.h"
#include "quant/fastscan.h"
#include "util/bit_ops.h"
#include "util/prng.h"

namespace rabitq {
namespace {

std::vector<float> RandomVec(std::size_t dim, Rng* rng, float scale = 1.0f) {
  std::vector<float> v(dim);
  for (auto& x : v) x = static_cast<float>(rng->Gaussian()) * scale;
  return v;
}

TEST(RabitqEncoderTest, InitValidatesConfig) {
  RabitqEncoder enc;
  RabitqConfig config;
  EXPECT_FALSE(enc.Init(0, config).ok());
  config.total_bits = 100;  // not a multiple of 64
  EXPECT_FALSE(enc.Init(96, config).ok());
  config.total_bits = 64;
  EXPECT_FALSE(enc.Init(128, config).ok());  // total_bits < dim
  config.total_bits = 0;
  config.query_bits = 0;
  EXPECT_FALSE(enc.Init(64, config).ok());
  config.query_bits = 4;
  config.epsilon0 = -1.0f;
  EXPECT_FALSE(enc.Init(64, config).ok());
  config.epsilon0 = 1.9f;
  EXPECT_TRUE(enc.Init(100, config).ok());
  EXPECT_EQ(enc.total_bits(), 128u);  // rounded up to multiple of 64
}

class RabitqEncoderParamTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(RabitqEncoderParamTest, StoredFactorsMatchDefinitions) {
  const auto [dim, total_bits] = GetParam();
  RabitqEncoder enc;
  RabitqConfig config;
  config.total_bits = total_bits;
  ASSERT_TRUE(enc.Init(dim, config).ok());
  const std::size_t b = enc.total_bits();

  Rng rng(dim * 3 + 1);
  RabitqCodeStore store(b);
  const auto centroid = RandomVec(dim, &rng);
  for (int i = 0; i < 20; ++i) {
    const auto vec = RandomVec(dim, &rng, 2.0f);
    EncodedCode code;
    enc.Encode(vec.data(), centroid.data(), &code);
    ASSERT_TRUE(enc.EncodeAppend(vec.data(), centroid.data(), &store).ok());
    // The store keeps the code's bits and the resident image of its
    // primaries.
    std::vector<std::uint64_t> bits(store.words_per_code());
    store.UnpackPlane(i, 0, bits.data());
    EXPECT_TRUE(std::equal(bits.begin(), bits.end(), code.planes.begin()));
    EXPECT_EQ(store.factors(i), DeriveFactors(code.primaries, Metric::kL2, b));
    const CodePrimaries& primaries = code.primaries;

    // dist_to_centroid = ||vec - centroid||.
    EXPECT_NEAR(primaries.dist_to_centroid,
                std::sqrt(L2SqrDistance(vec.data(), centroid.data(), dim)),
                1e-3f);
    // bit_count = popcount of the stored bits.
    EXPECT_EQ(store.bit_count(i), PopCount(bits.data(), store.words_per_code()));
    EXPECT_EQ(primaries.bit_count, store.bit_count(i));

    // o_o = <x-bar, P^T o> recomputed from scratch.
    std::vector<float> o(dim);
    Subtract(vec.data(), centroid.data(), o.data(), dim);
    NormalizeInPlace(o.data(), dim);
    std::vector<float> rotated(b);
    enc.rotator().InverseRotate(o.data(), rotated.data());
    float manual = 0.0f;
    const float scale = 1.0f / std::sqrt(static_cast<float>(b));
    for (std::size_t j = 0; j < b; ++j) {
      manual += (GetBit(bits.data(), j) ? scale : -scale) * rotated[j];
    }
    EXPECT_NEAR(primaries.o_o, manual, 1e-3f);
    // <o-bar, o> is positive and bounded by 1 (both unit vectors).
    EXPECT_GT(primaries.o_o, 0.0f);
    EXPECT_LE(primaries.o_o, 1.0f + 1e-4f);
  }
}

TEST_P(RabitqEncoderParamTest, ReconstructionHasUnitNormAndMatchesOO) {
  const auto [dim, total_bits] = GetParam();
  RabitqEncoder enc;
  RabitqConfig config;
  config.total_bits = total_bits;
  ASSERT_TRUE(enc.Init(dim, config).ok());
  const std::size_t b = enc.total_bits();

  Rng rng(dim * 5 + 7);
  const auto vec = RandomVec(dim, &rng);
  EncodedCode code;
  enc.Encode(vec.data(), nullptr, &code);

  // o-bar = P x-bar is a unit vector, and <o-bar, pad(o)> == encoded o_o.
  std::vector<float> o_bar(b);
  enc.ReconstructQuantizedUnit(code.planes.data(), o_bar.data());
  EXPECT_NEAR(Norm(o_bar.data(), b), 1.0f, 1e-3f);

  std::vector<float> o_padded(b, 0.0f);
  std::copy_n(vec.data(), dim, o_padded.data());
  NormalizeInPlace(o_padded.data(), b);
  EXPECT_NEAR(Dot(o_bar.data(), o_padded.data(), b), code.primaries.o_o,
              1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, RabitqEncoderParamTest,
                         ::testing::Values(std::make_pair(64, 64),
                                           std::make_pair(100, 128),
                                           std::make_pair(128, 128),
                                           std::make_pair(128, 256),
                                           std::make_pair(60, 192)));

TEST(RabitqEncoderTest, ZeroResidualVectorIsHandled) {
  RabitqEncoder enc;
  ASSERT_TRUE(enc.Init(32, RabitqConfig{}).ok());
  RabitqCodeStore store(enc.total_bits());
  std::vector<float> vec(32, 1.5f);
  EncodedCode code;
  enc.Encode(vec.data(), vec.data(), &code);
  EXPECT_FLOAT_EQ(code.primaries.dist_to_centroid, 0.0f);
  EXPECT_FLOAT_EQ(code.primaries.o_o, 1.0f);
  // The kernels' L2 zero-residual blend keys on f_cross == 0.
  ASSERT_TRUE(enc.EncodeAppend(vec.data(), vec.data(), &store).ok());
  EXPECT_EQ(store.f_cross_data()[0], 0.0f);
  EXPECT_EQ(store.f_inv_oo_data()[0], 1.0f);
}

TEST(RabitqEncoderTest, ConcentrationAroundPoint8) {
  // Paper Section 3.2.1 / Appendix B: E[<o-bar, o>] in [0.798, 0.800] for
  // D in [100, 1e6]. Average over many vectors with a fixed rotation is a
  // consistent estimate of the same quantity by exchangeability.
  const std::size_t dim = 128;
  RabitqEncoder enc;
  ASSERT_TRUE(enc.Init(dim, RabitqConfig{}).ok());
  Rng rng(2024);
  const int n = 400;
  double sum = 0.0;
  EncodedCode code;
  for (int i = 0; i < n; ++i) {
    const auto vec = RandomVec(dim, &rng);
    enc.Encode(vec.data(), nullptr, &code);
    sum += code.primaries.o_o;
  }
  EXPECT_NEAR(sum / n, 0.8, 0.02);
}

TEST(RabitqEncoderTest, PaddingIncreasesOO) {
  // Longer codes quantize the unit vector more finely: <o-bar,o> grows
  // toward 1 ... actually <o-bar,o> stays ~0.8 regardless of B (it is a
  // property of dimension B); what shrinks is the error bound ~1/sqrt(B).
  // Verify o_o stays in the concentration band for several paddings.
  Rng rng(5);
  const std::size_t dim = 96;
  const auto vec = RandomVec(dim, &rng);
  for (const std::size_t bits : {128u, 256u, 512u}) {
    RabitqEncoder enc;
    RabitqConfig config;
    config.total_bits = bits;
    ASSERT_TRUE(enc.Init(dim, config).ok());
    EncodedCode code;
    enc.Encode(vec.data(), nullptr, &code);
    EXPECT_GT(code.primaries.o_o, 0.6f);
    EXPECT_LT(code.primaries.o_o, 0.95f);
  }
}

TEST(RabitqCodeStoreTest, AppendUnpackRoundTrip) {
  RabitqCodeStore store(128);
  EXPECT_EQ(store.words_per_code(), 2u);
  std::uint64_t bits[2] = {0xDEADBEEFCAFEBABEULL, 0x0123456789ABCDEFULL};
  const CodeFactors factors = DeriveFactors(
      {.dist_to_centroid = 3.5f, .o_o = 0.82f, .bit_count = 61}, Metric::kL2,
      128);
  store.Append(bits, factors);
  ASSERT_EQ(store.size(), 1u);
  std::uint64_t unpacked[2] = {0, 0};
  store.UnpackPlane(0, 0, unpacked);
  EXPECT_EQ(unpacked[0], bits[0]);
  EXPECT_EQ(unpacked[1], bits[1]);
  EXPECT_EQ(store.factors(0), factors);
  // dist_to_centroid and o_o, through their resident images.
  EXPECT_FLOAT_EQ(store.f_cross_data()[0], 2.0f * 3.5f);
  EXPECT_FLOAT_EQ(store.f_inv_oo_data()[0], 1.0f / 0.82f);
  EXPECT_EQ(store.bit_count(0), 61u);
}

TEST(RabitqCodeStoreTest, AppendPacksNibbles) {
  RabitqCodeStore store(64);
  std::uint64_t bits = 0xFEDCBA9876543210ULL;
  store.Append(&bits, DeriveFactors({.dist_to_centroid = 1.0f,
                                     .o_o = 0.8f,
                                     .bit_count = 32},
                                    Metric::kL2, 64));
  ASSERT_TRUE(store.finalized());
  const FastScanCodes& packed = store.packed();
  EXPECT_EQ(packed.num_segments, 16u);
  EXPECT_EQ(packed.num_blocks, 1u);
  // Vector 0 occupies low nibble of byte 0 in each segment's 16-byte group.
  for (std::size_t t = 0; t < 16; ++t) {
    EXPECT_EQ(packed.BlockPtr(0)[t * 16] & 0xF, t);
  }
}

// The packed planes are the only copy of a code's bits, written one tail
// slot per Append. The invariant behind that: after any sequence of
// appends, every plane's bytes are exactly what PackFastScanCodes makes of
// the codes unpacked from it -- same block count, zero-filled tail slots.
void ExpectPackedMatchesRepack(const RabitqCodeStore& store) {
  const std::size_t n = store.size();
  const std::size_t segments = store.total_bits() / 4;
  std::vector<std::uint64_t> bits(store.words_per_code());
  std::vector<std::uint8_t> nibbles(n * segments);
  for (std::size_t p = 0; p < store.bits_per_dim(); ++p) {
    for (std::size_t i = 0; i < n; ++i) {
      store.UnpackPlane(i, p, bits.data());
      for (std::size_t t = 0; t < segments; ++t) {
        nibbles[i * segments + t] = GetNibble(bits.data(), t);
      }
    }
    FastScanCodes repacked;
    PackFastScanCodes(nibbles.data(), n, segments, &repacked);
    const FastScanCodes& packed = p + 1 == store.bits_per_dim()
                                      ? store.packed()
                                      : store.extra_packed(p);
    ASSERT_EQ(packed.num_vectors, n) << "plane " << p;
    ASSERT_EQ(packed.num_blocks, repacked.num_blocks) << "plane " << p;
    ASSERT_TRUE(std::equal(packed.packed.begin(),
                           packed.packed.begin() +
                               repacked.num_blocks * segments * 16,
                           repacked.packed.begin()))
        << "plane " << p << " of " << n << " codes";
  }
}

TEST(RabitqCodeStoreTest, AppendedPlanesMatchRepack) {
  Rng rng(321);
  const std::size_t total_bits = 128;
  for (const std::size_t bits_per_dim : {1u, 4u}) {
    RabitqCodeStore store;
    store.Init(total_bits, Metric::kL2, bits_per_dim);
    // 71 codes: crosses two block boundaries and ends mid-block.
    for (std::size_t i = 0; i < 71; ++i) {
      // bits_per_dim planes of 2 words, the sign plane last.
      std::vector<std::uint64_t> planes(bits_per_dim * 2);
      for (auto& w : planes) w = rng.NextU64();
      CodePrimaries primaries;
      primaries.dist_to_centroid = rng.UniformFloat() + 0.5f;
      primaries.o_o = rng.UniformFloat() * 0.3f + 0.6f;
      primaries.bit_count = static_cast<std::uint32_t>(rng.UniformInt(128));
      primaries.m_o_o = 0.9f;
      // Every fifth multi-bit code takes the all-zero low planes.
      if (i % 5 == 0) std::fill(planes.begin(), planes.end() - 2, 0);
      store.Append(planes.data(),
                   DeriveFactors(primaries, Metric::kL2, total_bits));
      ExpectPackedMatchesRepack(store);
    }
  }
}

// Every code-creation path of an index -- build, Add, Update, compaction,
// snapshot Load -- leaves each list's packed planes equal to a repack.
TEST(RabitqCodeStoreTest, IndexPlanesMatchRepackAcrossLifecycle) {
  for (const std::size_t bits_per_dim : {1u, 2u, 4u, 8u}) {
    Rng rng(17 + bits_per_dim);
    Matrix data(300, 24);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data.data()[i] = static_cast<float>(rng.Gaussian());
    }
    IvfConfig ivf;
    ivf.num_lists = 6;
    RabitqConfig rabitq;
    rabitq.bits_per_dim = bits_per_dim;
    IvfRabitqIndex index;
    ASSERT_TRUE(index.Build(data, ivf, rabitq).ok());
    const auto expect_all = [](const IvfRabitqIndex& idx) {
      for (std::size_t l = 0; l < idx.num_lists(); ++l) {
        ExpectPackedMatchesRepack(idx.list_codes(l));
      }
    };
    expect_all(index);
    std::vector<float> vec(24);
    for (int i = 0; i < 45; ++i) {
      for (auto& v : vec) v = static_cast<float>(rng.Gaussian());
      ASSERT_TRUE(index.Add(vec.data()).ok());
    }
    for (std::uint32_t id = 0; id < 300; id += 4) {
      ASSERT_TRUE(index.Delete(id).ok());
    }
    for (auto& v : vec) v = static_cast<float>(rng.Gaussian());
    ASSERT_TRUE(index.Update(1, vec.data()).ok());
    expect_all(index);
    ASSERT_TRUE(index.Compact().ok());
    ASSERT_EQ(index.num_tombstones(), 0u);
    expect_all(index);
    const std::string path = ::testing::TempDir() + "/planes_repack.rbq";
    ASSERT_TRUE(index.Save(path).ok());
    IvfRabitqIndex loaded;
    ASSERT_TRUE(loaded.Load(path).ok());
    expect_all(loaded);
    std::remove(path.c_str());
  }
}

// CompactInto keeps exactly the live codes, in order, and the result is
// bit-identical to appending the survivors directly.
TEST(RabitqCodeStoreTest, CompactIntoDropsDeadEntries) {
  Rng rng(99);
  const std::size_t total_bits = 64;
  RabitqCodeStore store(total_bits);
  std::vector<std::uint8_t> dead;
  RabitqCodeStore expect(total_bits);
  for (std::size_t i = 0; i < 50; ++i) {
    std::uint64_t bits = rng.NextU64();
    CodePrimaries primaries;
    primaries.dist_to_centroid = rng.UniformFloat() + 0.5f;
    primaries.o_o = 0.8f;
    primaries.bit_count = static_cast<std::uint32_t>(rng.UniformInt(64));
    const CodeFactors factors =
        DeriveFactors(primaries, Metric::kL2, total_bits);
    store.Append(&bits, factors);
    dead.push_back(i % 3 == 0 ? 1 : 0);
    if (i % 3 != 0) expect.Append(&bits, factors);
  }

  RabitqCodeStore compacted;
  store.CompactInto(dead.data(), &compacted);
  ASSERT_EQ(compacted.size(), expect.size());
  ASSERT_TRUE(compacted.finalized());
  for (std::size_t i = 0; i < compacted.size(); ++i) {
    std::uint64_t got = 0, want = 0;
    compacted.UnpackPlane(i, 0, &got);
    expect.UnpackPlane(i, 0, &want);
    EXPECT_EQ(got, want);
    // dist_to_centroid and o_o, through their resident images.
    EXPECT_FLOAT_EQ(compacted.f_cross_data()[i], expect.f_cross_data()[i]);
    EXPECT_FLOAT_EQ(compacted.f_inv_oo_data()[i], expect.f_inv_oo_data()[i]);
    EXPECT_EQ(compacted.bit_count(i), expect.bit_count(i));
    EXPECT_EQ(compacted.factors(i), expect.factors(i));
  }
  ASSERT_EQ(compacted.packed().packed.size(), expect.packed().packed.size());
  for (std::size_t b = 0; b < compacted.packed().packed.size(); ++b) {
    ASSERT_EQ(compacted.packed().packed[b], expect.packed().packed[b]);
  }
}

TEST(RabitqCodeStoreTest, EncoderRejectsMismatchedStore) {
  RabitqEncoder enc;
  ASSERT_TRUE(enc.Init(64, RabitqConfig{}).ok());
  RabitqCodeStore wrong(128);
  std::vector<float> vec(64, 1.0f);
  EXPECT_EQ(enc.EncodeAppend(vec.data(), nullptr, &wrong).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(enc.EncodeAppend(vec.data(), nullptr, nullptr).ok());
}

}  // namespace
}  // namespace rabitq
