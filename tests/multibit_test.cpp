// Multi-bit RaBitQ codes (bits_per_dim in {2, 4, 8}) and the two-stage
// error-bound scan:
//   * the sign plane of a multi-bit code is bit-identical to the 1-bit code
//     of the same vector (the sign-split grid guarantee), so stage 1 of the
//     scan is unchanged for any width;
//   * the fast-scan LUT sums and the bitwise sums of a block agree lane for
//     lane (AccumulateBlockSums, AccumulateMultiBlockSums) at every B_q with
//     lossless LUTs and every width, on appended and compacted stores;
//   * the multi-bit block kernels (AccumulateMultiBlockSums +
//     EstimateBlockMultiPruned) are bit-identical to the scalar reference
//     and to a plain per-code sum, candidate-mask pruning semantics
//     included;
//   * the per-code grid factors satisfy their defining identities
//     (reconstruction is unit-norm, m_o_o = <x-bar, o'>, the Eq. 16
//     half-width shrinks as the grid refines);
//   * the two-stage kErrorBound scan is element-identical to the brute-force
//     oracle at every width under kL2 and kInnerProduct, with LUT and
//     bitwise sums, and matches the scalar replay of its scan
//     (tests/scan_reference.h) away from exhaustive settings too;
//   * the multi-bit payload survives snapshots, Add/Delete/compaction, and
//     sharded + engine serving (including the codes_refined telemetry).

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/query.h"
#include "core/rabitq.h"
#include "engine/search_engine.h"
#include "index/brute_force.h"
#include "index/ivf.h"
#include "index/sharded.h"
#include "linalg/vector_ops.h"
#include "quant/fastscan.h"
#include "util/bit_ops.h"
#include "util/prng.h"
#include "scan_reference.h"

namespace rabitq {
namespace {

constexpr std::size_t kWidths[] = {2, 4, 8};

// The sign plane (the 1-bit code) and the low planes (plane-major) of code
// i, unpacked from the store's packed layout.
std::vector<std::uint64_t> SignBits(const RabitqCodeStore& store,
                                    std::size_t i) {
  std::vector<std::uint64_t> bits(store.words_per_code());
  store.UnpackPlane(i, store.bits_per_dim() - 1, bits.data());
  return bits;
}

std::vector<std::uint64_t> ExtraPlanes(const RabitqCodeStore& store,
                                       std::size_t i) {
  std::vector<std::uint64_t> planes((store.bits_per_dim() - 1) *
                                    store.words_per_code());
  for (std::size_t j = 0; j + 1 < store.bits_per_dim(); ++j) {
    store.UnpackPlane(i, j, planes.data() + j * store.words_per_code());
  }
  return planes;
}

// S = sum_d u_d * qu_d for code i: its level u_d read bit by bit from the
// unpacked planes, times the query's rounded coordinate. The plain
// reference of the weighted multi-bit sum.
std::uint32_t PlainMultiSum(const QuantizedQuery& qq,
                            const RabitqCodeStore& store, std::size_t i) {
  const std::vector<std::uint64_t> sign = SignBits(store, i);
  const std::vector<std::uint64_t> extra = ExtraPlanes(store, i);
  const std::size_t bits = store.bits_per_dim();
  const std::size_t words = store.words_per_code();
  std::uint32_t s = 0;
  for (std::size_t d = 0; d < store.total_bits(); ++d) {
    std::uint32_t u = GetBit(sign.data(), d) ? 1u << (bits - 1) : 0u;
    for (std::size_t j = 0; j + 1 < bits; ++j) {
      if (GetBit(extra.data() + j * words, d)) u |= 1u << j;
    }
    s += u * qq.qu[d];
  }
  return s;
}

std::vector<float> RandomVec(std::size_t dim, Rng* rng, float scale = 1.0f) {
  std::vector<float> v(dim);
  for (auto& x : v) x = static_cast<float>(rng->Gaussian()) * scale;
  return v;
}

Matrix ClusteredData(std::size_t n, std::size_t dim, std::size_t clusters,
                     std::uint64_t seed) {
  Rng rng(seed);
  Matrix centers(clusters, dim);
  for (std::size_t i = 0; i < centers.size(); ++i) {
    centers.data()[i] = static_cast<float>(rng.Gaussian()) * 8.0f;
  }
  Matrix data(n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = rng.UniformInt(clusters);
    for (std::size_t j = 0; j < dim; ++j) {
      data.At(i, j) = centers.At(c, j) + static_cast<float>(rng.Gaussian());
    }
  }
  return data;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& want,
                         const std::vector<Neighbor>& got,
                         const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].second, got[i].second) << label << " pos " << i;
    EXPECT_EQ(want[i].first, got[i].first) << label << " pos " << i;
  }
}

// Brute-force oracle over an allowed subset (all rows when mask is empty).
std::vector<Neighbor> OracleAllowed(const Matrix& data, const float* query,
                                    std::size_t k, Metric metric,
                                    const std::vector<bool>& allowed) {
  const std::vector<Neighbor> full =
      BruteForceSearch(data, query, data.rows(), metric);
  std::vector<Neighbor> out;
  for (const Neighbor& nb : full) {
    if (allowed.empty() || allowed[nb.second]) out.push_back(nb);
    if (out.size() == k) break;
  }
  return out;
}

struct Workload {
  RabitqEncoder encoder;
  RabitqCodeStore store;
  Matrix queries;
  std::vector<float> centroid;
};

// n codes against a random centroid; code 0 is planted at the centroid
// itself (the zero-residual degenerate code) whenever n > 2.
void BuildWorkload(std::size_t dim, std::size_t n, std::size_t n_queries,
                   std::size_t bits_per_dim, std::uint64_t seed, Workload* w) {
  Rng rng(seed);
  RabitqConfig config;
  config.bits_per_dim = bits_per_dim;
  config.seed = seed * 31 + 7;
  ASSERT_TRUE(w->encoder.Init(dim, config).ok());
  w->store.Init(w->encoder.total_bits(), Metric::kL2, bits_per_dim);
  w->centroid = RandomVec(dim, &rng, 0.5f);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<float> v =
        (i == 0 && n > 2) ? w->centroid : RandomVec(dim, &rng);
    ASSERT_TRUE(
        w->encoder.EncodeAppend(v.data(), w->centroid.data(), &w->store).ok());
  }
  w->queries.Reset(n_queries, dim);
  for (std::size_t q = 0; q < n_queries; ++q) {
    const auto v = RandomVec(dim, &rng);
    std::copy_n(v.data(), dim, w->queries.Row(q));
  }
}

TEST(MultibitTest, EncoderRejectsInvalidWidths) {
  for (const std::size_t bad : {std::size_t{0}, std::size_t{3}, std::size_t{5},
                                std::size_t{6}, std::size_t{16}}) {
    RabitqEncoder enc;
    RabitqConfig config;
    config.bits_per_dim = bad;
    const Status status = enc.Init(24, config);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
  }
  // Encoder/store width agreement is enforced at append time.
  RabitqEncoder enc;
  RabitqConfig config;
  config.bits_per_dim = 4;
  ASSERT_TRUE(enc.Init(24, config).ok());
  RabitqCodeStore narrow(enc.total_bits());  // bits_per_dim = 1
  std::vector<float> v(24, 1.0f);
  EXPECT_EQ(enc.EncodeAppend(v.data(), nullptr, &narrow).code(),
            StatusCode::kFailedPrecondition);
}

// The sign-split grid guarantee: a multi-bit code's sign plane and
// every 1-bit scalar riding with it are bit-identical to the 1-bit code of
// the same vector under the same rotator, and the MSB of each
// reconstructed level u_i IS the sign bit.
TEST(MultibitTest, SignPlaneIdenticalToOneBitCode) {
  const std::size_t dim = 48, n = 40;
  for (const std::size_t bits : kWidths) {
    Workload one, multi;
    BuildWorkload(dim, n, 1, 1, 77, &one);
    BuildWorkload(dim, n, 1, bits, 77, &multi);
    ASSERT_EQ(one.store.size(), multi.store.size());
    ASSERT_EQ(multi.store.bits_per_dim(), bits);
    const std::size_t words = one.store.words_per_code();
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<std::uint64_t> one_bits = SignBits(one.store, i);
      const std::vector<std::uint64_t> sign = SignBits(multi.store, i);
      const std::vector<std::uint64_t> extra = ExtraPlanes(multi.store, i);
      for (std::size_t wd = 0; wd < words; ++wd) {
        ASSERT_EQ(one_bits[wd], sign[wd])
            << "B " << bits << " code " << i << " word " << wd;
      }
      EXPECT_EQ(one.store.bit_count(i), multi.store.bit_count(i));
      // dist_to_centroid and o_o, through their resident images.
      EXPECT_EQ(one.store.f_sq_data()[i], multi.store.f_sq_data()[i]);
      EXPECT_EQ(one.store.f_cross_data()[i], multi.store.f_cross_data()[i]);
      EXPECT_EQ(one.store.f_inv_oo_data()[i], multi.store.f_inv_oo_data()[i]);
      EXPECT_EQ(one.store.f_err_data()[i], multi.store.f_err_data()[i]);
      // MSB-plane identity at the level granularity.
      const std::size_t b = multi.store.total_bits();
      for (std::size_t d = 0; d < b; ++d) {
        std::uint32_t u = GetBit(sign.data(), d) ? 1u : 0u;
        u <<= bits - 1;
        for (std::size_t j = 0; j + 1 < bits; ++j) {
          const std::uint64_t* plane = extra.data() + j * words;
          if (GetBit(plane, d)) u |= 1u << j;
        }
        EXPECT_EQ(u >> (bits - 1), GetBit(sign.data(), d) ? 1u : 0u);
      }
    }
  }
}

// The per-code grid factors satisfy their defining identities against an
// independent reconstruction from the stored planes and the rotator.
TEST(MultibitTest, GridFactorsMatchReconstruction) {
  const std::size_t dim = 40, n = 30;
  Rng data_rng(11);
  const std::vector<float> centroid = RandomVec(dim, &data_rng, 0.5f);
  std::vector<std::vector<float>> vecs;
  for (std::size_t i = 0; i < n; ++i) vecs.push_back(RandomVec(dim, &data_rng));

  double prev_mean_err = 1e30;
  for (const std::size_t bits : kWidths) {
    RabitqEncoder enc;
    RabitqConfig config;
    config.bits_per_dim = bits;
    config.seed = 99;
    ASSERT_TRUE(enc.Init(dim, config).ok());
    RabitqCodeStore store(0);
    store.Init(enc.total_bits(), Metric::kL2, bits);
    for (const auto& v : vecs) {
      ASSERT_TRUE(enc.EncodeAppend(v.data(), centroid.data(), &store).ok());
    }
    const std::size_t b = store.total_bits();
    const std::size_t words = store.words_per_code();
    double mean_err = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      // Rotated unit residual o' of the original vector.
      std::vector<float> residual(dim), rotated(b);
      for (std::size_t d = 0; d < dim; ++d) {
        residual[d] = vecs[i][d] - centroid[d];
      }
      float norm = 0.0f;
      for (const float x : residual) norm += x * x;
      norm = std::sqrt(norm);
      for (auto& x : residual) x /= norm;
      enc.rotator().InverseRotate(residual.data(), rotated.data());

      EncodedCode code;
      enc.Encode(vecs[i].data(), centroid.data(), &code);
      ASSERT_EQ(store.factors(i),
                DeriveFactors(code.primaries, Metric::kL2, b));
      const float alpha = store.m_alpha_data()[i];
      const float beta = store.m_beta_data()[i];
      double code_sum = 0.0, norm_sq = 0.0, dot = 0.0;
      const std::vector<std::uint64_t> sign = SignBits(store, i);
      const std::vector<std::uint64_t> extra = ExtraPlanes(store, i);
      for (std::size_t d = 0; d < b; ++d) {
        std::uint32_t u = GetBit(sign.data(), d) ? 1u : 0u;
        u <<= bits - 1;
        for (std::size_t j = 0; j + 1 < bits; ++j) {
          if (GetBit(extra.data() + j * words, d)) u |= 1u << j;
        }
        code_sum += u;
        // x-bar_d = alpha * u_d + beta, the affine form the estimator uses.
        const double xb = static_cast<double>(alpha) * u + beta;
        norm_sq += xb * xb;
        dot += xb * static_cast<double>(rotated[d]);
      }
      EXPECT_EQ(store.m_code_sum_data()[i], static_cast<float>(code_sum))
          << "B " << bits << " code " << i;
      EXPECT_NEAR(norm_sq, 1.0, 1e-4) << "B " << bits << " code " << i;
      const float m_o_o = code.primaries.m_o_o;
      EXPECT_NEAR(m_o_o, dot, 1e-4) << "B " << bits << " code " << i;
      EXPECT_LE(m_o_o, 1.0f + 1e-5f);
      mean_err += store.m_err_data()[i];
    }
    mean_err /= static_cast<double>(n);
    // Refining the grid tightens the Eq. 16 half-width on average.
    EXPECT_LT(mean_err, prev_mean_err) << "B " << bits;
    prev_mean_err = mean_err;
  }
}

// The two sources of a block's sums agree lane for lane: the fast-scan LUT
// kernel and B_q bitwise passes (forced on a copy of the query with
// has_exact_luts cleared) give the same sign-plane sum and the same weighted
// multi-bit sum S, at every B_q with lossless LUTs and every code width, on
// full and tail blocks, for a store grown by Append and for its compacted
// copy.
TEST(MultibitTest, LutAndBitwiseBlockSumsAgree) {
  const struct {
    std::size_t dim, n;
  } shapes[] = {{50, 90}, {100, 64}, {40, 33}, {200, 7}};
  for (const std::size_t bits :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    for (const auto& shape : shapes) {
      Workload w;
      BuildWorkload(shape.dim, shape.n, 2, bits, shape.dim * 10 + bits, &w);
      std::vector<std::uint8_t> dead(w.store.size(), 0);
      for (std::size_t i = 1; i < dead.size(); i += 3) dead[i] = 1;
      RabitqCodeStore compacted;
      w.store.CompactInto(dead.data(), &compacted);
      Rng rng(bits * 17 + shape.n);
      for (const RabitqCodeStore* store : {&w.store, &compacted}) {
        const char* which = store == &w.store ? "appended" : "compacted";
        for (int query_bits = 1; query_bits <= 6; ++query_bits) {
          for (std::size_t q = 0; q < w.queries.rows(); ++q) {
            QuantizedQuery qq;
            ASSERT_TRUE(PrepareQuery(w.encoder, w.queries.Row(q),
                                     w.centroid.data(), &rng, &qq, query_bits)
                            .ok());
            ASSERT_TRUE(qq.has_exact_luts) << "B_q " << query_bits;
            QuantizedQuery bitwise_qq = qq;
            bitwise_qq.has_exact_luts = false;
            const std::size_t num_blocks = store->packed().num_blocks;
            for (std::size_t block = 0; block < num_blocks; ++block) {
              std::uint32_t lut[kFastScanBlockSize] = {};
              std::uint32_t lut_multi[kFastScanBlockSize] = {};
              std::uint32_t bitwise[kFastScanBlockSize] = {};
              std::uint32_t bitwise_multi[kFastScanBlockSize] = {};
              AccumulateBlockSums(qq, *store, block, lut);
              AccumulateBlockSums(bitwise_qq, *store, block, bitwise);
              if (bits > 1) {
                AccumulateMultiBlockSums(qq, *store, block, lut, lut_multi);
                AccumulateMultiBlockSums(bitwise_qq, *store, block, bitwise,
                                         bitwise_multi);
              }
              const std::size_t begin = block * kFastScanBlockSize;
              const std::size_t count =
                  std::min(kFastScanBlockSize, store->size() - begin);
              for (std::size_t k = 0; k < count; ++k) {
                ASSERT_EQ(lut[k], bitwise[k])
                    << which << " B_d " << bits << " B_q " << query_bits
                    << " n " << store->size() << " block " << block
                    << " lane " << k;
                ASSERT_EQ(lut_multi[k], bitwise_multi[k])
                    << which << " B_d " << bits << " B_q " << query_bits
                    << " n " << store->size() << " block " << block
                    << " lane " << k;
              }
            }
          }
        }
      }
    }
  }
}

// The multi-bit block kernels: AccumulateMultiBlockSums equals the plain
// per-code sum, and the pruned SIMD kernel is bit-identical to its scalar
// reference, candidate-mask semantics included (non-candidate lanes never
// survive, candidate lanes follow the scalar !(lb > thr) rule exactly).
TEST(MultibitTest, BlockKernelsBitIdenticalToScalarAndSingleCode) {
  const struct {
    std::size_t dim, n;
  } shapes[] = {{50, 90}, {100, 64}, {40, 33}};
  for (const std::size_t bits : kWidths) {
    for (const auto& shape : shapes) {
      Workload w;
      BuildWorkload(shape.dim, shape.n, 2, bits, shape.dim * 100 + bits, &w);
      Rng rng(bits * 7 + shape.n);
      Rng mask_rng(bits * 13 + 5);
      for (std::size_t q = 0; q < w.queries.rows() + 1; ++q) {
        // Last pass queries the centroid itself (q_dist == 0 edge).
        const float* query = q < w.queries.rows() ? w.queries.Row(q)
                                                  : w.centroid.data();
        QuantizedQuery qq;
        ASSERT_TRUE(
            PrepareQuery(w.encoder, query, w.centroid.data(), &rng, &qq).ok());
        const FastScanCodes& packed = w.store.packed();
        std::uint32_t sums[kFastScanBlockSize];
        std::uint32_t msums[kFastScanBlockSize];
        for (std::size_t block = 0; block < packed.num_blocks; ++block) {
          FastScanAccumulateBlock(packed.BlockPtr(block), packed.num_segments,
                                  qq.luts.data(), sums);
          AccumulateMultiBlockSums(qq, w.store, block, sums, msums);
          const std::size_t begin = block * kFastScanBlockSize;
          const std::size_t count =
              std::min(kFastScanBlockSize, w.store.size() - begin);
          for (std::size_t k = 0; k < count; ++k) {
            ASSERT_EQ(msums[k], PlainMultiSum(qq, w.store, begin + k))
                << "block " << block << " lane " << k;
          }
          // Reference distances/bounds from the scalar reference with every
          // lane a candidate and no pruning.
          float ref_d[kFastScanBlockSize], ref_lb[kFastScanBlockSize];
          EstimateBlockMultiPrunedScalar(
              qq, w.store, block, msums, 1.9f,
              std::numeric_limits<float>::infinity(), 0xFFFFFFFFu, ref_d,
              ref_lb);
          const float lo = *std::min_element(ref_lb, ref_lb + count);
          const float hi = *std::max_element(ref_lb, ref_lb + count);
          const float thresholds[] = {lo, (lo + hi) / 2, hi, FLT_MAX};
          for (const float thr : thresholds) {
            // Random candidate masks, plus the all-candidates mask.
            for (int pass = 0; pass < 3; ++pass) {
              const std::uint32_t cand =
                  pass == 0 ? 0xFFFFFFFFu
                            : static_cast<std::uint32_t>(
                                  mask_rng.NextU64() & 0xFFFFFFFFu);
              float fd[kFastScanBlockSize], flb[kFastScanBlockSize];
              float sd[kFastScanBlockSize], slb[kFastScanBlockSize];
              const std::uint32_t fused = EstimateBlockMultiPruned(
                  qq, w.store, block, msums, 1.9f, thr, cand, fd, flb);
              const std::uint32_t scalar = EstimateBlockMultiPrunedScalar(
                  qq, w.store, block, msums, 1.9f, thr, cand, sd, slb);
              ASSERT_EQ(fused, scalar)
                  << "block " << block << " thr " << thr << " cand " << cand;
              EXPECT_EQ(fused & ~cand, 0u) << "non-candidate lane survived";
              for (std::size_t k = 0; k < kFastScanBlockSize; ++k) {
                const bool is_cand = ((cand >> k) & 1u) != 0;
                const bool expect_survive =
                    k < count && is_cand && !(ref_lb[k] > thr);
                EXPECT_EQ((fused >> k) & 1u, expect_survive ? 1u : 0u)
                    << "block " << block << " lane " << k << " thr " << thr;
                if (k < count && is_cand) {
                  ASSERT_EQ(fd[k], ref_d[k]) << "lane " << k;
                  ASSERT_EQ(flb[k], ref_lb[k]) << "lane " << k;
                  ASSERT_EQ(sd[k], ref_d[k]) << "lane " << k;
                  ASSERT_EQ(slb[k], ref_lb[k]) << "lane " << k;
                }
              }
            }
          }
        }
      }
    }
  }
}

// kNone reference over every list of `index`: each code's bitwise estimate
// under the per-list query the search prepares -- the single-code
// EstimateDistance for 1-bit codes, the scalar refine reference over
// bitwise block sums for B_d-bit codes -- the k smallest (estimate, id)
// pairs.
std::vector<Neighbor> SingleCodeTopK(const IvfRabitqIndex& index,
                                     const float* query, std::uint64_t seed,
                                     std::size_t k) {
  const RabitqEncoder& encoder = index.encoder();
  const Metric metric = index.metric();
  const float query_norm_sq =
      metric == Metric::kL2 ? 0.0f : SquaredNorm(query, index.dim());
  std::vector<float> rotated(encoder.total_bits());
  RotateQueryOnce(encoder, query, rotated.data());
  QuantizedQuery qq;
  std::vector<Neighbor> pool;
  for (std::size_t l = 0; l < index.num_lists(); ++l) {
    const auto& ids = index.list_ids(l);
    if (ids.empty()) continue;
    Rng list_rng(MixSeed(seed, l));
    const float q_dist = std::sqrt(std::max(
        0.0f, L2SqrDistance(query, index.centroids().Row(l), index.dim())));
    EXPECT_TRUE(PrepareQueryFromRotated(encoder, rotated.data(),
                                        index.rotated_centroids().Row(l),
                                        q_dist, &list_rng, &qq,
                                        /*query_bits_override=*/0, metric,
                                        query_norm_sq)
                    .ok());
    const RabitqCodeStore& codes = index.list_codes(l);
    if (codes.bits_per_dim() == 1) {
      for (std::size_t i = 0; i < ids.size(); ++i) {
        pool.emplace_back(EstimateDistance(qq, codes, i, 0.0f).dist_sq,
                          ids[i]);
      }
      continue;
    }
    qq.has_exact_luts = false;
    for (std::size_t begin = 0; begin < ids.size();
         begin += kFastScanBlockSize) {
      const std::size_t block = begin / kFastScanBlockSize;
      std::uint32_t sums[kFastScanBlockSize], msums[kFastScanBlockSize];
      float dist[kFastScanBlockSize], lb[kFastScanBlockSize];
      AccumulateBlockSums(qq, codes, block, sums);
      AccumulateMultiBlockSums(qq, codes, block, sums, msums);
      EstimateBlockMultiPrunedScalar(qq, codes, block, msums, 0.0f,
                                     std::numeric_limits<float>::infinity(),
                                     0xFFFFFFFFu, dist, lb);
      for (std::size_t k = 0;
           k < std::min(kFastScanBlockSize, ids.size() - begin); ++k) {
        pool.emplace_back(dist[k], ids[begin + k]);
      }
    }
  }
  k = std::min(k, pool.size());
  std::partial_sort(pool.begin(), pool.begin() + k, pool.end());
  pool.resize(k);
  return pool;
}

class MultibitSearchTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 900;
  static constexpr std::size_t kDim = 24;
  static constexpr std::size_t kLists = 10;
  static constexpr std::size_t kNumQueries = 6;
  static constexpr std::size_t kK = 10;

  void SetUp() override {
    data_ = ClusteredData(kN, kDim, 10, 421);
    queries_ = ClusteredData(kNumQueries, kDim, 10, 422);
  }

  IvfRabitqIndex BuildSingle(Metric metric, std::size_t bits,
                             int query_bits = RabitqConfig{}.query_bits) const {
    IvfRabitqIndex index;
    IvfConfig ivf;
    ivf.num_lists = kLists;
    ivf.metric = metric;
    RabitqConfig rabitq;
    rabitq.bits_per_dim = bits;
    rabitq.query_bits = query_bits;
    EXPECT_TRUE(index.Build(data_, ivf, rabitq).ok());
    return index;
  }

  // Exhaustive exact settings: full probe, never prune.
  static SearchOptions ExhaustiveParams() {
    SearchOptions params;
    params.k = kK;
    params.nprobe = kLists;
    params.epsilon0_override = 50.0f;
    params.policy = RerankPolicy::kErrorBound;
    params.rerank_candidates = kN;
    return params;
  }

  Matrix data_;
  Matrix queries_;
};

// The tentpole acceptance criterion: the two-stage kErrorBound scan is
// element-identical to the brute-force oracle at every width, under kL2 and
// kInnerProduct, on both estimator paths -- and the codes_refined telemetry
// fires exactly when a second stage exists. B_q 7 and 8 have no lossless
// LUTs, so there every block's sums come from the bitwise passes. Under
// kNone the search returns each code's bitwise reference estimate exactly,
// fast-scan sums or not.
TEST_F(MultibitSearchTest, TwoStageScanMatchesOracleAcrossWidths) {
  for (const int query_bits : {4, 7, 8}) {
    for (const Metric metric : {Metric::kL2, Metric::kInnerProduct}) {
      for (const std::size_t bits :
           {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
        if (query_bits > 6 && bits != 1 && bits != 4) continue;
        const IvfRabitqIndex index = BuildSingle(metric, bits, query_bits);
        ASSERT_EQ(index.encoder().config().bits_per_dim, bits);
        for (std::size_t q = 0; q < kNumQueries; ++q) {
          const std::vector<Neighbor> oracle =
              OracleAllowed(data_, queries_.Row(q), kK, metric, {});
          const std::vector<Neighbor> estimates =
              SingleCodeTopK(index, queries_.Row(q), 600 + q, kK);
          SearchOptions params = ExhaustiveParams();
          params.seed = 600 + q;
          const SearchResponse response =
              index.Search({queries_.Row(q), params});
          ASSERT_TRUE(response.ok());
          const std::vector<Neighbor>& got = response.neighbors;
          const IvfSearchStats& stats = response.stats;
          const std::string label = std::string(MetricName(metric)) + " B" +
                                    std::to_string(bits) + " Bq" +
                                    std::to_string(query_bits) + " q" +
                                    std::to_string(q);
          ExpectSameNeighbors(oracle, got, label);
          if (bits > 1) {
            EXPECT_GT(stats.codes_refined, 0u) << label;
          } else {
            EXPECT_EQ(stats.codes_refined, 0u) << label;
          }
          params.policy = RerankPolicy::kNone;
          const SearchResponse none = index.Search({queries_.Row(q), params});
          ASSERT_TRUE(none.ok());
          ExpectSameNeighbors(estimates, none.neighbors, label + " kNone");
        }
      }
    }
  }
}

// Away from exhaustive settings the search and the scalar replay of its
// scan with bitwise sums (tests/scan_reference.h) still return identical
// results at every width (the snapshot-threshold pruning of the fused
// stage-2 kernel is consistent with the walk's live recheck), and the
// estimate-only policies rank by the full-width estimate on both.
TEST_F(MultibitSearchTest, BatchAndNonBatchAgreeAtPartialProbe) {
  for (const std::size_t bits : kWidths) {
  // The tombstoned input deletes every 9th id without compacting, so the
  // probed lists carry dead entries: estimated, but never refined.
  for (const bool tombstoned : {false, true}) {
      IvfRabitqIndex index = BuildSingle(Metric::kL2, bits);
      if (tombstoned) {
        for (std::uint32_t id = 0; id < kN; id += 9) {
          ASSERT_TRUE(index.Delete(id).ok());
        }
      }
      SearchOptions batch;
      batch.k = kK;
      batch.nprobe = 4;
      batch.policy = RerankPolicy::kErrorBound;
      for (std::size_t q = 0; q < kNumQueries; ++q) {
        batch.seed = 700 + q;
        const SearchResponse batch_out = index.Search({queries_.Row(q), batch});
        const SearchResponse scalar_out =
            ReferenceSearch(index, queries_.Row(q), batch);
        ASSERT_TRUE(batch_out.ok());
        ASSERT_TRUE(scalar_out.ok());
        ExpectSameNeighbors(scalar_out.neighbors, batch_out.neighbors,
                            "partial-probe B" + std::to_string(bits));
      }
      // kFixedCandidates / kNone rank their pools by the full B_d-bit
      // estimate (every live scanned code is refined -- the estimate must
      // stand in for the exact distance there), and the search and the
      // replay still agree. codes_refined counts the live lanes: tombstones are estimated
      // (codes_estimated) but not refined.
      std::size_t total_dead = 0;
      for (const RerankPolicy policy :
           {RerankPolicy::kFixedCandidates, RerankPolicy::kNone}) {
        SearchOptions params = batch;
        params.policy = policy;
        params.rerank_candidates = 40;
        for (std::size_t q = 0; q < kNumQueries; ++q) {
          params.seed = 711 + q;
          const SearchResponse batch_out =
              index.Search({queries_.Row(q), params});
          const SearchResponse scalar_out =
              ReferenceSearch(index, queries_.Row(q), params);
          ASSERT_TRUE(batch_out.ok());
          ASSERT_TRUE(scalar_out.ok());
          ExpectSameNeighbors(scalar_out.neighbors, batch_out.neighbors,
                              "pool policy B" + std::to_string(bits));
          std::vector<std::pair<float, std::uint32_t>> order;
          index.ProbeOrderInto(queries_.Row(q), params.nprobe, &order);
          std::size_t dead = 0;
          for (std::size_t p = 0; p < params.nprobe; ++p) {
            dead += index.list_tombstones(order[p].second);
          }
          total_dead += dead;
          EXPECT_EQ(batch_out.stats.codes_refined,
                    batch_out.stats.codes_estimated - dead);
          EXPECT_EQ(scalar_out.stats.codes_refined,
                    batch_out.stats.codes_refined);
        }
      }
      EXPECT_EQ(total_dead > 0, tombstoned);
    }
  }
}

// Snapshots carry the multi-bit payload: bits_per_dim, the extra code
// planes and the resident grid factors all round-trip bitwise (through the
// current v6 format), and post-load search is bit-identical.
TEST_F(MultibitSearchTest, SnapshotV4RoundTripsMultiBitPayload) {
  const IvfRabitqIndex index = BuildSingle(Metric::kInnerProduct, 4);
  const std::string path = ::testing::TempDir() + "/multibit_v4.rbq";
  ASSERT_TRUE(index.Save(path).ok());
  {
    std::ifstream in(path, std::ios::binary);
    char magic[8] = {};
    in.read(magic, 8);
    EXPECT_EQ(std::string(magic, 8), "RBQIVF06");
  }
  IvfRabitqIndex loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.metric(), Metric::kInnerProduct);
  ASSERT_EQ(loaded.encoder().config().bits_per_dim, 4u);
  ASSERT_EQ(loaded.num_lists(), index.num_lists());
  for (std::size_t l = 0; l < index.num_lists(); ++l) {
    const RabitqCodeStore& a = index.list_codes(l);
    const RabitqCodeStore& b = loaded.list_codes(l);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(b.bits_per_dim(), 4u);
    for (std::size_t i = 0; i < a.size(); ++i) {
      const std::vector<std::uint64_t> a_extra = ExtraPlanes(a, i);
      const std::vector<std::uint64_t> b_extra = ExtraPlanes(b, i);
      for (std::size_t wd = 0; wd < a_extra.size(); ++wd) {
        ASSERT_EQ(a_extra[wd], b_extra[wd])
            << "list " << l << " code " << i << " word " << wd;
      }
      // m_o_o, through its resident images m_inv_oo / m_err.
      EXPECT_EQ(a.factors(i), b.factors(i));
      EXPECT_EQ(a.m_alpha_data()[i], b.m_alpha_data()[i]);
      EXPECT_EQ(a.m_beta_data()[i], b.m_beta_data()[i]);
      EXPECT_EQ(a.m_code_sum_data()[i], b.m_code_sum_data()[i]);
      EXPECT_EQ(a.m_inv_oo_data()[i], b.m_inv_oo_data()[i]);
      EXPECT_EQ(a.m_err_data()[i], b.m_err_data()[i]);
    }
  }
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    SearchOptions params = ExhaustiveParams();
    params.seed = 800 + q;
    const SearchResponse want = index.Search({queries_.Row(q), params});
    const SearchResponse got = loaded.Search({queries_.Row(q), params});
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    ExpectSameNeighbors(want.neighbors, got.neighbors, "v4 round trip");
  }
  std::filesystem::remove(path);
}

// The mutable lifecycle at a multi-bit width: Add (incremental fast-scan
// repack of every plane), Delete, compaction -- the index still reproduces
// the oracle over the live set afterwards.
TEST_F(MultibitSearchTest, LifecycleKeepsMultiBitPayloadConsistent) {
  IvfRabitqIndex index = BuildSingle(Metric::kL2, 4);
  Matrix all = ClusteredData(kN + 50, kDim, 10, 421);
  std::copy_n(data_.data(), data_.size(), all.data());
  Rng extra_rng(31);
  for (std::size_t i = 0; i < 50; ++i) {
    const std::size_t c = extra_rng.UniformInt(kN);
    for (std::size_t j = 0; j < kDim; ++j) {
      all.At(kN + i, j) =
          data_.At(c, j) + 0.25f * static_cast<float>(extra_rng.Gaussian());
    }
    std::uint32_t id = 0;
    ASSERT_TRUE(index.Add(all.Row(kN + i), &id).ok());
    ASSERT_EQ(id, kN + i);
  }
  std::vector<bool> allowed(kN + 50, true);
  for (std::size_t id = 0; id < kN + 50; id += 7) {
    ASSERT_TRUE(index.Delete(static_cast<std::uint32_t>(id)).ok());
    allowed[id] = false;
  }
  ASSERT_TRUE(index.Compact().ok());
  EXPECT_EQ(index.num_tombstones(), 0u);
  for (std::size_t l = 0; l < index.num_lists(); ++l) {
    EXPECT_EQ(index.list_codes(l).bits_per_dim(), 4u);
  }
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    const std::vector<Neighbor> oracle =
        OracleAllowed(all, queries_.Row(q), kK, Metric::kL2, allowed);
    SearchOptions params = ExhaustiveParams();
    params.seed = 900 + q;
    const SearchResponse got = index.Search({queries_.Row(q), params});
    ASSERT_TRUE(got.ok());
    ExpectSameNeighbors(oracle, got.neighbors, "lifecycle B4");
  }
}

// Sharded scatter-gather and the serving engine thread the width through:
// shard results stay bit-identical to single-shard, the engine reports the
// width and counts stage-2 refinements.
TEST_F(MultibitSearchTest, ShardedAndEngineServeMultiBit) {
  ShardedConfig config;
  config.num_shards = 3;
  config.clustering = ShardClustering::kShared;
  config.ivf.num_lists = kLists;
  config.ivf.metric = Metric::kL2;
  config.rabitq.bits_per_dim = 4;
  ShardedIndex sharded;
  ASSERT_TRUE(sharded.Build(data_, config).ok());
  const IvfRabitqIndex single = BuildSingle(Metric::kL2, 4);

  SearchOptions params;
  params.k = kK;
  params.nprobe = 5;
  params.policy = RerankPolicy::kErrorBound;
  // Widened eps0 keeps the kErrorBound shard merge bit-identical (shards
  // prune against weaker per-shard thresholds; see sharded.h).
  params.epsilon0_override = 8.0f;
  std::vector<std::vector<Neighbor>> want(kNumQueries);
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    params.seed = 1000 + q;
    SearchResponse single_response = single.Search({queries_.Row(q), params});
    const SearchResponse got = sharded.Search({queries_.Row(q), params});
    ASSERT_TRUE(single_response.ok());
    ASSERT_TRUE(got.ok());
    want[q] = std::move(single_response.neighbors);
    ExpectSameNeighbors(want[q], got.neighbors, "sharded B4");
    EXPECT_GT(got.stats.codes_refined, 0u) << "merged stats drop refinements";
  }

  EngineConfig engine_config;
  engine_config.num_threads = 2;
  SearchEngine engine(std::move(sharded), engine_config);
  EXPECT_EQ(engine.bits_per_dim(), 4u);
  std::vector<SearchRequest> requests(kNumQueries);
  SearchOptions options;
  options.k = kK;
  options.nprobe = 5;
  options.epsilon0_override = 8.0f;
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    requests[q] = {queries_.Row(q), options};
    requests[q].options.seed = 1000 + q;
  }
  std::vector<SearchResponse> responses;
  ASSERT_TRUE(
      engine.SearchBatch(requests.data(), requests.size(), &responses).ok());
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    ASSERT_TRUE(responses[q].ok()) << responses[q].status.message();
    ExpectSameNeighbors(want[q], responses[q].neighbors, "engine B4");
  }
  EXPECT_GT(engine.Stats().codes_refined, 0u);
}

}  // namespace
}  // namespace rabitq
