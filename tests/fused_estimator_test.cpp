// The fused SIMD estimate pipeline:
//   * the AVX2+FMA block assembly (EstimateBlockFusedPruned) is
//     bit-identical to its scalar reference across dims, code widths,
//     non-multiple-of-8/32 tails, the B_q sweep, and the
//     dist_to_centroid == 0 / q_dist == 0 edge cases;
//   * the in-kernel pruning variant returns exactly the survivors the
//     un-fused per-entry loop would have re-ranked (tombstone masks, tail
//     lanes, threshold semantics included);
//   * the resident per-code factors (f_sq/f_cross/f_inv_oo/f_err) equal the
//     restated formulas applied to the encoder's primaries, and survive
//     every code-creation path bit-for-bit: incremental appends,
//     CompactInto, and snapshot Load (the v1 golden file, whose factors are
//     derived from the primaries in its per-code records, and a current
//     format round trip, which saves the factors as they are).

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/query.h"
#include "core/rabitq.h"
#include "index/ivf.h"
#include "quant/fastscan.h"
#include "util/prng.h"
#include "util/serialize.h"

#ifndef RABITQ_TEST_DATA_DIR
#define RABITQ_TEST_DATA_DIR "tests/data"
#endif

namespace rabitq {
namespace {

constexpr float kNoPrune = std::numeric_limits<float>::infinity();

// Unpruned block assembly: +inf threshold, no tombstones, all lanes allowed.
void AssembleBlock(const QuantizedQuery& qq, const RabitqCodeStore& store,
                   std::size_t block, const std::uint32_t* sums,
                   float epsilon0, float* dist_sq, float* lower_bounds) {
  EstimateBlockFusedPruned(qq, store, block, sums, epsilon0, kNoPrune,
                           /*dead=*/nullptr, dist_sq, lower_bounds,
                           0xFFFFFFFFu);
}

void AssembleBlockScalar(const QuantizedQuery& qq,
                         const RabitqCodeStore& store, std::size_t block,
                         const std::uint32_t* sums, float epsilon0,
                         float* dist_sq, float* lower_bounds) {
  EstimateBlockFusedPrunedScalar(qq, store, block, sums, epsilon0, kNoPrune,
                                 /*dead=*/nullptr, dist_sq, lower_bounds,
                                 0xFFFFFFFFu);
}

std::vector<float> RandomVec(std::size_t dim, Rng* rng, float scale = 1.0f) {
  std::vector<float> v(dim);
  for (auto& x : v) x = static_cast<float>(rng->Gaussian()) * scale;
  return v;
}

// The factor formulas of DeriveFactors, restated independently.
struct ExpectedFactors {
  float f_sq, f_cross, f_inv_oo, f_err;
};

ExpectedFactors FactorsOf(float dist, float o_o, std::size_t total_bits) {
  ExpectedFactors f;
  f.f_sq = dist * dist;
  f.f_cross = 2.0f * dist;
  const float o_c = std::max(o_o, 1e-9f);
  f.f_inv_oo = 1.0f / o_c;
  const float o_sq = std::max(o_c * o_c, 1e-12f);
  f.f_err = std::sqrt((1.0f - o_sq) / o_sq) /
            std::sqrt(static_cast<float>(total_bits - 1));
  return f;
}

// `primaries` holds the encoder's output for each code of `store`, in order.
void ExpectFactorsMatch(const RabitqCodeStore& store,
                        const std::vector<CodePrimaries>& primaries) {
  ASSERT_EQ(store.size(), primaries.size());
  for (std::size_t i = 0; i < store.size(); ++i) {
    const ExpectedFactors want =
        FactorsOf(primaries[i].dist_to_centroid, primaries[i].o_o,
                  store.total_bits());
    EXPECT_EQ(store.f_sq_data()[i], want.f_sq) << "code " << i;
    EXPECT_EQ(store.f_cross_data()[i], want.f_cross) << "code " << i;
    EXPECT_EQ(store.f_inv_oo_data()[i], want.f_inv_oo) << "code " << i;
    EXPECT_EQ(store.f_err_data()[i], want.f_err) << "code " << i;
  }
}

struct Workload {
  RabitqEncoder encoder;
  RabitqCodeStore store;
  std::vector<CodePrimaries> primaries;  // per code of `store`
  Matrix queries;
  std::vector<float> centroid;

  // EncodeAppend, recording the code's primaries from Encode alongside.
  void Add(const float* vec) {
    EncodedCode code;
    encoder.Encode(vec, centroid.data(), &code);
    primaries.push_back(code.primaries);
    ASSERT_TRUE(encoder.EncodeAppend(vec, centroid.data(), &store).ok());
  }
};

// n codes against a random centroid; code 0 is planted at the centroid
// itself (dist_to_centroid == 0) whenever n > 2.
void BuildWorkload(std::size_t dim, std::size_t n, std::size_t n_queries,
                   std::size_t total_bits, std::uint64_t seed, Workload* w) {
  Rng rng(seed);
  RabitqConfig config;
  config.total_bits = total_bits;
  config.seed = seed * 31 + 7;
  ASSERT_TRUE(w->encoder.Init(dim, config).ok());
  w->store.Init(w->encoder.total_bits());
  w->centroid = RandomVec(dim, &rng, 0.5f);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<float> v = (i == 0 && n > 2) ? w->centroid : RandomVec(dim, &rng);
    w->Add(v.data());
  }
  w->queries.Reset(n_queries, dim);
  for (std::size_t q = 0; q < n_queries; ++q) {
    const auto v = RandomVec(dim, &rng);
    std::copy_n(v.data(), dim, w->queries.Row(q));
  }
}

// Runs fused vs scalar over every block of `w.store` for one prepared query
// and checks bitwise equality of dist_sq and lower bounds on real lanes.
void ExpectFusedMatchesScalar(const Workload& w, const QuantizedQuery& qq,
                              float epsilon0) {
  ASSERT_TRUE(qq.has_exact_luts);
  const FastScanCodes& packed = w.store.packed();
  std::uint32_t sums[kFastScanBlockSize];
  for (std::size_t block = 0; block < packed.num_blocks; ++block) {
    FastScanAccumulateBlock(packed.BlockPtr(block), packed.num_segments,
                            qq.luts.data(), sums);
    float fused_d[kFastScanBlockSize], fused_lb[kFastScanBlockSize];
    float ref_d[kFastScanBlockSize], ref_lb[kFastScanBlockSize];
    AssembleBlock(qq, w.store, block, sums, epsilon0, fused_d, fused_lb);
    AssembleBlockScalar(qq, w.store, block, sums, epsilon0, ref_d, ref_lb);
    const std::size_t begin = block * kFastScanBlockSize;
    const std::size_t count =
        std::min(kFastScanBlockSize, w.store.size() - begin);
    for (std::size_t k = 0; k < count; ++k) {
      ASSERT_EQ(fused_d[k], ref_d[k]) << "block " << block << " lane " << k;
      ASSERT_EQ(fused_lb[k], ref_lb[k]) << "block " << block << " lane " << k;
      // And both match the single-code bitwise path exactly.
      const DistanceEstimate single =
          EstimateDistance(qq, w.store, begin + k, epsilon0);
      ASSERT_EQ(fused_d[k], single.dist_sq) << "block " << block << " lane "
                                            << k;
      ASSERT_EQ(fused_lb[k], single.lower_bound_sq)
          << "block " << block << " lane " << k;
    }
  }
}

TEST(FusedEstimatorTest, FusedMatchesScalarAcrossDimsAndTails) {
  // Dims straddling the 64-padding boundary; n values exercising every tail
  // shape: single code, sub-8, non-multiple-of-8, non-multiple-of-32, exact
  // blocks.
  const struct {
    std::size_t dim, bits;
  } shapes[] = {{50, 64}, {100, 128}, {120, 128}, {240, 256}};
  const std::size_t sizes[] = {1, 7, 31, 32, 33, 40, 100};
  for (const auto& shape : shapes) {
    for (const std::size_t n : sizes) {
      Workload w;
      BuildWorkload(shape.dim, n, 2, shape.bits, shape.dim * 1000 + n, &w);
      Rng rng(n * 13 + 1);
      for (std::size_t q = 0; q < w.queries.rows(); ++q) {
        QuantizedQuery qq;
        ASSERT_TRUE(PrepareQuery(w.encoder, w.queries.Row(q),
                                 w.centroid.data(), &rng, &qq)
                        .ok());
        ExpectFusedMatchesScalar(w, qq, 1.9f);
        ExpectFusedMatchesScalar(w, qq, 0.0f);  // bound computation skipped
      }
    }
  }
}

TEST(FusedEstimatorTest, FusedMatchesScalarAcrossQueryBits) {
  Workload w;
  BuildWorkload(96, 70, 1, 128, 77, &w);
  Rng rng(4);
  for (int bq = 1; bq <= 6; ++bq) {  // B_q <= 6 keeps the u8 LUTs exact
    QuantizedQuery qq;
    ASSERT_TRUE(PrepareQuery(w.encoder, w.queries.Row(0), w.centroid.data(),
                             &rng, &qq, /*query_bits_override=*/bq)
                    .ok());
    ExpectFusedMatchesScalar(w, qq, 1.9f);
  }
}

TEST(FusedEstimatorTest, FusedHandlesDegenerateQueryAndCode) {
  Workload w;
  BuildWorkload(64, 40, 1, 64, 99, &w);  // code 0 sits on the centroid
  Rng rng(6);
  // q == centroid: q_dist == 0, every estimate must be exactly f_sq.
  QuantizedQuery qq;
  ASSERT_TRUE(
      PrepareQuery(w.encoder, w.centroid.data(), w.centroid.data(), &rng, &qq)
          .ok());
  ExpectFusedMatchesScalar(w, qq, 1.9f);
  std::uint32_t sums[kFastScanBlockSize];
  const FastScanCodes& packed = w.store.packed();
  FastScanAccumulateBlock(packed.BlockPtr(0), packed.num_segments,
                          qq.luts.data(), sums);
  float d[kFastScanBlockSize], lb[kFastScanBlockSize];
  AssembleBlock(qq, w.store, 0, sums, 1.9f, d, lb);
  EXPECT_EQ(d[0], 0.0f);  // code 0: d == 0 AND q_dist == 0
  EXPECT_EQ(d[1], w.store.f_sq_data()[1]);
  EXPECT_EQ(lb[1], w.store.f_sq_data()[1]);

  // Generic query against the planted d == 0 code: exactly q_dist^2.
  QuantizedQuery qq2;
  ASSERT_TRUE(PrepareQuery(w.encoder, w.queries.Row(0), w.centroid.data(),
                           &rng, &qq2)
                  .ok());
  ExpectFusedMatchesScalar(w, qq2, 1.9f);
  FastScanAccumulateBlock(packed.BlockPtr(0), packed.num_segments,
                          qq2.luts.data(), sums);
  AssembleBlock(qq2, w.store, 0, sums, 1.9f, d, lb);
  EXPECT_EQ(d[0], qq2.q_dist * qq2.q_dist);
  EXPECT_EQ(lb[0], qq2.q_dist * qq2.q_dist);
}

TEST(FusedEstimatorTest, PrunedVariantMatchesScalarAndUnfusedSelection) {
  Workload w;
  BuildWorkload(100, 90, 3, 128, 55, &w);  // 2 full blocks + 26-lane tail
  Rng rng(8);
  Rng mask_rng(21);
  for (std::size_t q = 0; q < w.queries.rows(); ++q) {
    QuantizedQuery qq;
    ASSERT_TRUE(PrepareQuery(w.encoder, w.queries.Row(q), w.centroid.data(),
                             &rng, &qq)
                    .ok());
    // Random tombstone pattern (including the all-alive nullptr contract).
    std::vector<std::uint8_t> dead(w.store.size(), 0);
    for (auto& flag : dead) flag = mask_rng.UniformInt(4) == 0 ? 1 : 0;
    const FastScanCodes& packed = w.store.packed();
    std::uint32_t sums[kFastScanBlockSize];
    for (std::size_t block = 0; block < packed.num_blocks; ++block) {
      FastScanAccumulateBlock(packed.BlockPtr(block), packed.num_segments,
                              qq.luts.data(), sums);
      const std::size_t begin = block * kFastScanBlockSize;
      const std::size_t count =
          std::min(kFastScanBlockSize, w.store.size() - begin);
      // Reference lower bounds pick plausible thresholds: min, a mid value,
      // max, and the no-prune FLT_MAX sentinel.
      float ref_d[kFastScanBlockSize], ref_lb[kFastScanBlockSize];
      AssembleBlockScalar(qq, w.store, block, sums, 1.9f, ref_d, ref_lb);
      const float lo = *std::min_element(ref_lb, ref_lb + count);
      const float hi = *std::max_element(ref_lb, ref_lb + count);
      const float thresholds[] = {lo, (lo + hi) / 2, hi, FLT_MAX};
      for (const float thr : thresholds) {
        for (const bool use_dead : {false, true}) {
          const std::uint8_t* dptr = use_dead ? dead.data() + begin : nullptr;
          float fd[kFastScanBlockSize], flb[kFastScanBlockSize];
          float sd[kFastScanBlockSize], slb[kFastScanBlockSize];
          const std::uint32_t fused_mask = EstimateBlockFusedPruned(
              qq, w.store, block, sums, 1.9f, thr, dptr, fd, flb);
          const std::uint32_t scalar_mask = EstimateBlockFusedPrunedScalar(
              qq, w.store, block, sums, 1.9f, thr, dptr, sd, slb);
          ASSERT_EQ(fused_mask, scalar_mask)
              << "block " << block << " thr " << thr;
          // The mask is exactly the set the un-fused loop would re-rank.
          for (std::size_t k = 0; k < kFastScanBlockSize; ++k) {
            const bool expect_survive =
                k < count && !(use_dead && dead[begin + k]) &&
                !(ref_lb[k] > thr);
            EXPECT_EQ((fused_mask >> k) & 1u, expect_survive ? 1u : 0u)
                << "block " << block << " lane " << k << " thr " << thr;
          }
          for (std::size_t k = 0; k < count; ++k) {
            ASSERT_EQ(fd[k], ref_d[k]);
            ASSERT_EQ(flb[k], ref_lb[k]);
          }
        }
      }
    }
  }
}

TEST(FusedEstimatorTest, InfiniteLowerBoundSurvivesInfinityThreshold) {
  // A dist_to_centroid large enough that f_sq = d^2 overflows makes the
  // whole estimate (and lower bound) +inf. The no-prune sentinel is
  // +infinity, under which such lanes must SURVIVE (the un-fused loop
  // re-ranks them while the heap is filling); a finite threshold prunes
  // them like any other too-distant candidate.
  RabitqEncoder enc;
  RabitqConfig config;
  config.total_bits = 64;
  ASSERT_TRUE(enc.Init(32, config).ok());
  RabitqCodeStore store(enc.total_bits());
  Rng rng(3);
  std::vector<float> centroid(32, 0.0f);
  std::vector<float> v(32);
  for (int i = 0; i < 8; ++i) {
    for (auto& x : v) x = static_cast<float>(rng.Gaussian());
    ASSERT_TRUE(enc.EncodeAppend(v.data(), centroid.data(), &store).ok());
  }
  // Hand-append a code whose squared distance overflows float.
  std::vector<std::uint64_t> bits(store.words_per_code(), 0x5555555555555555u);
  store.Append(bits.data(),
               DeriveFactors({.dist_to_centroid = FLT_MAX,
                              .o_o = 0.5f,
                              .bit_count = 32},
                             Metric::kL2, store.total_bits()));
  ASSERT_EQ(store.f_sq_data()[8], std::numeric_limits<float>::infinity());

  std::vector<float> query(32, 1.0f);
  QuantizedQuery qq;
  ASSERT_TRUE(PrepareQuery(enc, query.data(), centroid.data(), &rng, &qq).ok());
  std::uint32_t sums[kFastScanBlockSize];
  FastScanAccumulateBlock(store.packed().BlockPtr(0),
                          store.packed().num_segments, qq.luts.data(), sums);
  float d[kFastScanBlockSize], lb[kFastScanBlockSize];
  const std::uint32_t all = EstimateBlockFusedPruned(
      qq, store, 0, sums, 1.9f, std::numeric_limits<float>::infinity(),
      nullptr, d, lb);
  // The overflowed lane's bound is non-finite (+inf, or NaN when the fma
  // collapses inf - inf); either way the un-fused loop would re-rank it
  // while the heap is filling, so the +inf sentinel must keep it.
  EXPECT_FALSE(std::isfinite(lb[8]));
  EXPECT_EQ(all, (1u << store.size()) - 1u)
      << "+inf sentinel must not prune any lane, non-finite bounds included";
  // Under a finite threshold, survival follows the scalar `!(lb > thr)`
  // semantics exactly (+inf is pruned, NaN survives), and the SIMD and
  // scalar variants agree on it.
  const std::uint32_t finite = EstimateBlockFusedPruned(
      qq, store, 0, sums, 1.9f, FLT_MAX, nullptr, d, lb);
  for (std::size_t k = 0; k < store.size(); ++k) {
    EXPECT_EQ((finite >> k) & 1u, !(lb[k] > FLT_MAX) ? 1u : 0u) << "lane " << k;
  }
  EXPECT_EQ(EstimateBlockFusedPrunedScalar(qq, store, 0, sums, 1.9f, FLT_MAX,
                                           nullptr, d, lb),
            finite);
}

TEST(FusedEstimatorTest, FactorsSurviveAppendAndCompaction) {
  Workload w;
  BuildWorkload(60, 50, 1, 64, 33, &w);
  ExpectFactorsMatch(w.store, w.primaries);

  // Incremental appends (the Add path) compute the same factors.
  Rng rng(12);
  std::vector<float> v(60);
  for (int i = 0; i < 5; ++i) {
    for (auto& x : v) x = static_cast<float>(rng.Gaussian());
    w.Add(v.data());
  }
  ExpectFactorsMatch(w.store, w.primaries);

  // Compaction copies the survivors' factors bit-identically.
  std::vector<std::uint8_t> dead(w.store.size(), 0);
  for (std::size_t i = 0; i < dead.size(); i += 3) dead[i] = 1;
  RabitqCodeStore compacted;
  w.store.CompactInto(dead.data(), &compacted);
  std::vector<CodePrimaries> live_primaries;
  for (std::size_t i = 0; i < dead.size(); ++i) {
    if (!dead[i]) live_primaries.push_back(w.primaries[i]);
  }
  ExpectFactorsMatch(compacted, live_primaries);
  std::size_t live = 0;
  for (std::size_t i = 0; i < w.store.size(); ++i) {
    if (dead[i]) continue;
    EXPECT_EQ(compacted.f_sq_data()[live], w.store.f_sq_data()[i]);
    EXPECT_EQ(compacted.f_cross_data()[live], w.store.f_cross_data()[i]);
    EXPECT_EQ(compacted.f_inv_oo_data()[live], w.store.f_inv_oo_data()[i]);
    EXPECT_EQ(compacted.f_err_data()[live], w.store.f_err_data()[i]);
    ++live;
  }
  EXPECT_EQ(live, compacted.size());
}

// The per-code primaries of a v1 snapshot, list by list, read straight from
// its per-code records (sign bits, dist_to_centroid, o_o, bit_count).
std::vector<std::vector<CodePrimaries>> ReadV1Primaries(
    const std::string& path) {
  std::vector<std::vector<CodePrimaries>> lists;
  std::unique_ptr<BinaryReader> reader;
  EXPECT_TRUE(BinaryReader::Open(path, &reader).ok());
  if (reader == nullptr) return lists;
  char magic[8];
  std::uint32_t version = 0, u32 = 0;
  std::uint64_t dim = 0, total_bits = 0, u64 = 0, n = 0, num_lists = 0;
  float f32 = 0.0f;
  EXPECT_TRUE(reader->ReadBytes(magic, 8).ok());
  EXPECT_TRUE(reader->ReadU32(&version).ok());
  EXPECT_EQ(version, 1u);
  EXPECT_TRUE(reader->ReadU64(&dim).ok());
  EXPECT_TRUE(reader->ReadU64(&total_bits).ok());
  EXPECT_TRUE(reader->ReadF32(&f32).ok());  // epsilon0
  EXPECT_TRUE(reader->ReadU32(&u32).ok());  // query_bits
  EXPECT_TRUE(reader->ReadU32(&u32).ok());  // rotator kind
  EXPECT_TRUE(reader->ReadU64(&u64).ok());  // seed
  EXPECT_TRUE(reader->ReadU64(&n).ok());
  std::vector<float> floats(n * dim);
  EXPECT_TRUE(reader->ReadBytes(floats.data(), floats.size() * 4).ok());
  EXPECT_TRUE(reader->ReadU64(&num_lists).ok());
  floats.resize(num_lists * dim);
  EXPECT_TRUE(reader->ReadBytes(floats.data(), floats.size() * 4).ok());
  std::vector<std::uint64_t> bits(total_bits / 64);
  for (std::uint64_t l = 0; l < num_lists; ++l) {
    std::vector<std::uint32_t> ids;
    EXPECT_TRUE(reader->ReadArray<std::uint32_t>(&ids).ok());
    std::uint64_t codes = 0;
    EXPECT_TRUE(reader->ReadU64(&codes).ok());
    std::vector<CodePrimaries>& list = lists.emplace_back(codes);
    for (CodePrimaries& p : list) {
      EXPECT_TRUE(reader->ReadBytes(bits.data(), bits.size() * 8).ok());
      EXPECT_TRUE(reader->ReadF32(&p.dist_to_centroid).ok());
      EXPECT_TRUE(reader->ReadF32(&p.o_o).ok());
      EXPECT_TRUE(reader->ReadU32(&p.bit_count).ok());
    }
  }
  return lists;
}

TEST(FusedEstimatorTest, GoldenV1LoadRecomputesFactors) {
  // The committed pre-factor-era snapshot: Load must derive the factor
  // arrays from the stored (dist, o_o) floats, and the fused path over the
  // loaded index must agree with the bitwise path.
  IvfRabitqIndex index;
  const std::string golden =
      std::string(RABITQ_TEST_DATA_DIR) + "/golden_v1.rbq";
  ASSERT_TRUE(index.Load(golden).ok()) << "cannot load v1 golden " << golden;
  const std::vector<std::vector<CodePrimaries>> primaries =
      ReadV1Primaries(golden);
  ASSERT_EQ(primaries.size(), index.num_lists());
  std::size_t codes_checked = 0;
  for (std::size_t l = 0; l < index.num_lists(); ++l) {
    ExpectFactorsMatch(index.list_codes(l), primaries[l]);
    codes_checked += index.list_codes(l).size();
  }
  EXPECT_EQ(codes_checked, index.size());

  // Current-format round trip: factors after Save/Load are bit-identical
  // to the in-memory ones (the file holds them as they are).
  const std::string path = ::testing::TempDir() + "/fused_factors_v6.rbq";
  ASSERT_TRUE(index.Save(path).ok());
  IvfRabitqIndex reloaded;
  ASSERT_TRUE(reloaded.Load(path).ok());
  ASSERT_EQ(reloaded.num_lists(), index.num_lists());
  for (std::size_t l = 0; l < index.num_lists(); ++l) {
    const RabitqCodeStore& a = index.list_codes(l);
    const RabitqCodeStore& b = reloaded.list_codes(l);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.f_sq_data()[i], b.f_sq_data()[i]);
      EXPECT_EQ(a.f_cross_data()[i], b.f_cross_data()[i]);
      EXPECT_EQ(a.f_inv_oo_data()[i], b.f_inv_oo_data()[i]);
      EXPECT_EQ(a.f_err_data()[i], b.f_err_data()[i]);
    }
  }
  std::remove(path.c_str());

  // Fused batch vs bitwise single-code on the loaded golden index.
  Rng qrng(314);
  std::vector<float> query(index.dim());
  for (auto& x : query) x = static_cast<float>(qrng.Gaussian());
  for (std::size_t l = 0; l < index.num_lists(); ++l) {
    const RabitqCodeStore& store = index.list_codes(l);
    if (store.size() == 0) continue;
    QuantizedQuery qq;
    ASSERT_TRUE(PrepareQuery(index.encoder(), query.data(),
                             index.centroids().Row(l), &qrng, &qq)
                    .ok());
    std::vector<float> est(store.size()), lb(store.size());
    EstimateAll(qq, store, 1.9f, est.data(), lb.data());
    for (std::size_t i = 0; i < store.size(); ++i) {
      const DistanceEstimate single = EstimateDistance(qq, store, i, 1.9f);
      ASSERT_EQ(est[i], single.dist_sq) << "list " << l << " code " << i;
      ASSERT_EQ(lb[i], single.lower_bound_sq) << "list " << l << " code " << i;
    }
  }
}

}  // namespace
}  // namespace rabitq
