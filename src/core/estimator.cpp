#include "core/estimator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

#include "quant/fastscan.h"
#include "util/bit_ops.h"

namespace rabitq {

namespace {

// Every lane is assembled in two steps written so that each operation maps
// 1:1 onto the AVX2 kernels below (explicit std::fma <-> fmadd/fnmadd, lone
// mul/add <-> mul_ps/add_ps). The explicit fma calls are not just speed:
// they pin the rounding sequence so the compiler cannot contract the scalar
// path differently from the hand-written SIMD path, which is what keeps the
// two bit-identical. The front end differs per code width: XQbar1 (the
// 1-bit code, Eq. 20) or XQbarMulti (the B_d-bit code, from the weighted
// plane sum S and the per-code m_alpha / m_beta affine map) gives
// <x-bar, q-bar>, which divided by <o-bar, o> is the estimate ip of <o,q>.
// FinishLane then turns ip into the score and its eps0 lower bound.
inline float XQbar1(float s_f, float pc_f, const QuantizedQuery& query) {
  return std::fma(query.ip_scale, s_f,
                  std::fma(query.pop_scale, pc_f, query.bias));
}

inline float XQbarMulti(float s_f, float u_f, float m_alpha, float m_beta,
                        const QuantizedQuery& query) {
  return std::fma(m_alpha, std::fma(query.lo, u_f, query.step * s_f),
                  m_beta * query.kq);
}

// The score base + cross * ip and its lower bound from the lane's error
// factor `err` (f_err, or m_err for the multi-bit refine).
//
// Edge handling mirrors the kernels' blends, L2 ONLY: a q_dist == 0 query
// overrides the whole lane with f_sq, then a zero-residual code wins with
// q_base (== q_dist^2 under kL2). The code edge keys on f_cross == 0: under
// kL2 f_cross = 2d with d >= 0, which is 0 exactly when d is (a NaN d fails
// both tests alike). (For encoded codes the blends are actually no-ops --
// d == 0 implies f_sq = f_cross = 0 and f_err = 0, so the arithmetic
// already lands on the same values -- but the blends keep the contract
// independent of those identities.) Under IP/cosine no blends are needed
// OR wanted: either edge zeroes the cross term, and f_sq + q_base is then
// EXACTLY -<o,q> (resp. -<c,q>), so the straight-line arithmetic is
// already exact.
inline void FinishLane(float ip, float f_sq, float f_cross, float err,
                       const QuantizedQuery& query, float epsilon0,
                       float* dist_out, float* lb_out) {
  const float cross = f_cross * query.q_dist;
  const float base = f_sq + query.q_base;
  float dist = std::fma(-cross, ip, base);
  float lb = epsilon0 > 0.0f ? std::fma(-cross, err * epsilon0, dist) : dist;
  if (query.metric == Metric::kL2) {
    if (query.q_dist == 0.0f) {
      dist = f_sq;
      lb = f_sq;
    }
    if (f_cross == 0.0f) {
      dist = query.q_base;
      lb = query.q_base;
    }
  }
  *dist_out = dist;
  *lb_out = lb;
}

// Scalar multi-bit refine over the candidate lanes of [0, count); returns
// the refined survivors mask (candidate lanes with lb <= threshold).
inline std::uint32_t MultiBlockScalar(const QuantizedQuery& query,
                                      const RabitqCodeStore& store,
                                      std::size_t begin,
                                      const std::uint32_t* multi_sums,
                                      std::size_t count, float epsilon0,
                                      float prune_threshold,
                                      std::uint32_t candidate_mask,
                                      float* dist_sq, float* lower_bounds) {
  const float* f_sq = store.f_sq_data() + begin;
  const float* f_cross = store.f_cross_data() + begin;
  const float* m_alpha = store.m_alpha_data() + begin;
  const float* m_beta = store.m_beta_data() + begin;
  const float* m_inv = store.m_inv_oo_data() + begin;
  const float* m_err = store.m_err_data() + begin;
  const float* u_sum = store.m_code_sum_data() + begin;
  std::uint32_t mask = 0;
  for (std::size_t k = 0; k < count; ++k) {
    if (((candidate_mask >> k) & 1u) == 0) continue;
    const float x_qbar = XQbarMulti(static_cast<float>(multi_sums[k]),
                                    u_sum[k], m_alpha[k], m_beta[k], query);
    FinishLane(x_qbar * m_inv[k], f_sq[k], f_cross[k], m_err[k], query,
               epsilon0, &dist_sq[k], &lower_bounds[k]);
    mask |= static_cast<std::uint32_t>(!(lower_bounds[k] > prune_threshold))
            << k;
  }
  return mask;
}

#if defined(__AVX2__) && defined(__FMA__)

// FinishLane over 8 lanes, for both AVX2 kernels: the per-query constants
// broadcast once, then Finish per 8-lane group.
struct FinishLanesAvx2 {
  FinishLanesAvx2(const QuantizedQuery& query, float epsilon0,
                  float prune_threshold)
      : q_dist(_mm256_set1_ps(query.q_dist)),
        q_base(_mm256_set1_ps(query.q_base)),
        eps(_mm256_set1_ps(epsilon0)),
        thr(_mm256_set1_ps(prune_threshold)),
        has_bound(epsilon0 > 0.0f),
        l2_edges(query.metric == Metric::kL2),
        q_zero(l2_edges && query.q_dist == 0.0f) {}

  // Stores the 8 lanes' scores (and lower bounds unless `lb_out` is null)
  // and returns their survivors bits: lb not above the threshold.
  std::uint32_t Finish(__m256 ip, const float* f_sq, const float* f_cross,
                       const float* err, float* dist_out,
                       float* lb_out) const {
    const __m256 vf_sq = _mm256_loadu_ps(f_sq);
    const __m256 vf_cross = _mm256_loadu_ps(f_cross);
    const __m256 cross = _mm256_mul_ps(vf_cross, q_dist);
    const __m256 base = _mm256_add_ps(vf_sq, q_base);
    __m256 dist = _mm256_fnmadd_ps(cross, ip, base);
    __m256 lb = dist;
    if (has_bound) {
      lb = _mm256_fnmadd_ps(cross, _mm256_mul_ps(_mm256_loadu_ps(err), eps),
                            dist);
    }
    if (q_zero) {
      dist = vf_sq;
      lb = vf_sq;
    }
    if (l2_edges) {
      const __m256 edge =
          _mm256_cmp_ps(vf_cross, _mm256_setzero_ps(), _CMP_EQ_OQ);
      dist = _mm256_blendv_ps(dist, q_base, edge);
      lb = _mm256_blendv_ps(lb, q_base, edge);
    }
    _mm256_storeu_ps(dist_out, dist);
    if (lb_out != nullptr) _mm256_storeu_ps(lb_out, lb);
    const int pruned = _mm256_movemask_ps(_mm256_cmp_ps(lb, thr, _CMP_GT_OQ));
    return static_cast<std::uint32_t>(~pruned) & 0xFFu;
  }

  __m256 q_dist, q_base, eps, thr;
  bool has_bound, l2_edges, q_zero;
};

// Full-block multi-bit refine: 8-lane groups in XQbarMulti + FinishLane's
// exact order; groups with no candidate lanes are skipped (their outputs
// stay unspecified, per the header contract).
inline std::uint32_t MultiBlockAvx2(const QuantizedQuery& query,
                                    const RabitqCodeStore& store,
                                    std::size_t begin,
                                    const std::uint32_t* multi_sums,
                                    float epsilon0, float prune_threshold,
                                    std::uint32_t candidate_mask,
                                    float* dist_sq, float* lower_bounds) {
  const float* m_alpha = store.m_alpha_data() + begin;
  const float* m_beta = store.m_beta_data() + begin;
  const float* m_inv = store.m_inv_oo_data() + begin;
  const float* u_sum = store.m_code_sum_data() + begin;
  const __m256 v_step = _mm256_set1_ps(query.step);
  const __m256 v_lo = _mm256_set1_ps(query.lo);
  const __m256 v_kq = _mm256_set1_ps(query.kq);
  const FinishLanesAvx2 tail(query, epsilon0, prune_threshold);
  std::uint32_t mask = 0;
  for (std::size_t off = 0; off < kFastScanBlockSize; off += 8) {
    if (((candidate_mask >> off) & 0xFFu) == 0) continue;
    const __m256 s_f = _mm256_cvtepi32_ps(_mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(multi_sums + off)));
    const __m256 s_mul = _mm256_mul_ps(v_step, s_f);
    const __m256 inner =
        _mm256_fmadd_ps(v_lo, _mm256_loadu_ps(u_sum + off), s_mul);
    const __m256 bk = _mm256_mul_ps(_mm256_loadu_ps(m_beta + off), v_kq);
    const __m256 x_qbar =
        _mm256_fmadd_ps(_mm256_loadu_ps(m_alpha + off), inner, bk);
    const __m256 ip = _mm256_mul_ps(x_qbar, _mm256_loadu_ps(m_inv + off));
    mask |= tail.Finish(ip, store.f_sq_data() + begin + off,
                        store.f_cross_data() + begin + off,
                        store.m_err_data() + begin + off, dist_sq + off,
                        lower_bounds + off)
            << off;
  }
  return mask & candidate_mask;
}

#endif  // defined(__AVX2__) && defined(__FMA__)

// Folds the structural masks into a survivors bitmask: tail lanes of a
// partial block, tombstoned entries and lanes the caller's `lane_mask`
// (the per-query IdFilter pushdown) cleared never survive.
inline std::uint32_t FoldAliveMask(std::uint32_t mask, const std::uint8_t* dead,
                                   std::size_t count,
                                   std::uint32_t lane_mask) {
  std::uint32_t alive = count >= kFastScanBlockSize
                            ? 0xFFFFFFFFu
                            : ((1u << count) - 1u);
  alive &= lane_mask;
  if (dead != nullptr) {
    for (std::size_t k = 0; k < count; ++k) {
      alive &= ~(static_cast<std::uint32_t>(dead[k] != 0) << k);
    }
  }
  return mask & alive;
}

// Scalar fused assembly over lanes [0, count); returns the raw
// lb-vs-threshold mask (before FoldAliveMask).
inline std::uint32_t FusedBlockScalar(const QuantizedQuery& query,
                                      const RabitqCodeStore& store,
                                      std::size_t begin,
                                      const std::uint32_t* sums,
                                      std::size_t count, float epsilon0,
                                      float prune_threshold, float* dist_sq,
                                      float* lower_bounds) {
  const float* f_sq = store.f_sq_data() + begin;
  const float* f_cross = store.f_cross_data() + begin;
  const float* f_inv = store.f_inv_oo_data() + begin;
  const float* f_err = store.f_err_data() + begin;
  const std::uint32_t* pc = store.bit_count_data() + begin;
  std::uint32_t mask = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const float x_qbar =
        XQbar1(static_cast<float>(sums[k]), static_cast<float>(pc[k]), query);
    float lb = 0.0f;
    FinishLane(x_qbar * f_inv[k], f_sq[k], f_cross[k], f_err[k], query,
               epsilon0, &dist_sq[k], &lb);
    if (lower_bounds != nullptr) lower_bounds[k] = lb;
    // Survive unless lb > threshold -- the same strict comparison (and the
    // same NaN-survives semantics) as the SIMD _CMP_GT_OQ path.
    mask |= static_cast<std::uint32_t>(!(lb > prune_threshold)) << k;
  }
  return mask;
}

#if defined(__AVX2__) && defined(__FMA__)

// Full-block (32-lane) fused assembly. Per 8-lane group: two int->float
// converts, then fmadd/mul in exactly XQbar1's order and FinishLane's
// tail. Returns the raw lb-vs-threshold survivors mask.
inline std::uint32_t FusedBlockAvx2(const QuantizedQuery& query,
                                    const RabitqCodeStore& store,
                                    std::size_t begin,
                                    const std::uint32_t* sums, float epsilon0,
                                    float prune_threshold, float* dist_sq,
                                    float* lower_bounds) {
  const float* f_inv = store.f_inv_oo_data() + begin;
  const std::uint32_t* pc = store.bit_count_data() + begin;
  const __m256 v_ip_scale = _mm256_set1_ps(query.ip_scale);
  const __m256 v_pop_scale = _mm256_set1_ps(query.pop_scale);
  const __m256 v_bias = _mm256_set1_ps(query.bias);
  const FinishLanesAvx2 tail(query, epsilon0, prune_threshold);
  std::uint32_t mask = 0;
  for (std::size_t off = 0; off < kFastScanBlockSize; off += 8) {
    const __m256 s_f = _mm256_cvtepi32_ps(_mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(sums + off)));
    const __m256 pc_f = _mm256_cvtepi32_ps(_mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(pc + off)));
    const __m256 x_qbar = _mm256_fmadd_ps(
        v_ip_scale, s_f, _mm256_fmadd_ps(v_pop_scale, pc_f, v_bias));
    const __m256 ip = _mm256_mul_ps(x_qbar, _mm256_loadu_ps(f_inv + off));
    mask |= tail.Finish(ip, store.f_sq_data() + begin + off,
                        store.f_cross_data() + begin + off,
                        store.f_err_data() + begin + off, dist_sq + off,
                        lower_bounds == nullptr ? nullptr : lower_bounds + off)
            << off;
  }
  return mask;
}

#endif  // defined(__AVX2__) && defined(__FMA__)

// Dispatch: AVX2 for full blocks, the bit-identical scalar reference for
// the (at most one) partial tail block -- the factor arrays hold exactly
// size() entries, so the tail must not be read 8-wide.
inline std::uint32_t FusedBlockDispatch(const QuantizedQuery& query,
                                        const RabitqCodeStore& store,
                                        std::size_t block,
                                        const std::uint32_t* sums,
                                        float epsilon0, float prune_threshold,
                                        float* dist_sq, float* lower_bounds) {
  const std::size_t begin = block * kFastScanBlockSize;
  const std::size_t count = std::min(kFastScanBlockSize, store.size() - begin);
#if defined(__AVX2__) && defined(__FMA__)
  if (count == kFastScanBlockSize) {
    return FusedBlockAvx2(query, store, begin, sums, epsilon0, prune_threshold,
                          dist_sq, lower_bounds);
  }
#endif
  return FusedBlockScalar(query, store, begin, sums, count, epsilon0,
                          prune_threshold, dist_sq, lower_bounds);
}

// Single-code 1-bit estimate of code `i`: B_q bitwise passes (Eq. 22) over
// its unpacked sign plane, then the block kernels' own XQbar1 and
// FinishLane, so this path is bit-identical to the fused ones by
// construction. Adds the ip / ip_error outputs the block kernels do not
// carry (ip = 1, ip_error = 0 at the two L2 edges). `f_inv_oo` = 1 skips
// Thm 3.2's division by <o-bar, o>: the biased ablation of Appendix F.2,
// which keeps <o-bar, q> as its estimate.
DistanceEstimate EstimateSingle(const QuantizedQuery& query,
                                const RabitqCodeStore& store, std::size_t i,
                                float f_inv_oo, float epsilon0) {
  std::vector<std::uint64_t> bits(store.words_per_code());
  store.UnpackPlane(i, store.bits_per_dim() - 1, bits.data());
  const CodeFactors f = store.factors(i);
  DistanceEstimate est;
  est.ip = XQbar1(static_cast<float>(BitwiseDotQuery(query, bits.data())),
                  static_cast<float>(f.bit_count), query) *
           f_inv_oo;
  FinishLane(est.ip, f.f_sq, f.f_cross, f.f_err, query, epsilon0,
             &est.dist_sq, &est.lower_bound_sq);
  if (query.metric == Metric::kL2 &&
      (f.f_cross == 0.0f || query.q_dist == 0.0f)) {
    est.ip = 1.0f;
    return est;
  }
  est.ip_error = epsilon0 > 0.0f ? f.f_err * epsilon0 : 0.0f;
  return est;
}

}  // namespace

std::uint32_t BitwiseDotQuery(const QuantizedQuery& query,
                              const std::uint64_t* code_bits) {
  return BitPlaneDot(code_bits, query.bit_planes.data(),
                     static_cast<std::size_t>(query.query_bits),
                     query.num_words);
}

DistanceEstimate EstimateDistance(const QuantizedQuery& query,
                                  const RabitqCodeStore& store, std::size_t i,
                                  float epsilon0) {
  return EstimateSingle(query, store, i, store.f_inv_oo_data()[i], epsilon0);
}

DistanceEstimate EstimateDistanceBiased(const QuantizedQuery& query,
                                        const RabitqCodeStore& store,
                                        std::size_t i) {
  return EstimateSingle(query, store, i, /*f_inv_oo=*/1.0f,
                        /*epsilon0=*/0.0f);
}

std::uint32_t EstimateBlockFusedPruned(const QuantizedQuery& query,
                                       const RabitqCodeStore& store,
                                       std::size_t block,
                                       const std::uint32_t* sums,
                                       float epsilon0, float prune_threshold,
                                       const std::uint8_t* dead,
                                       float* dist_sq, float* lower_bounds,
                                       std::uint32_t lane_mask) {
  const std::size_t begin = block * kFastScanBlockSize;
  const std::size_t count = std::min(kFastScanBlockSize, store.size() - begin);
  const std::uint32_t mask =
      FusedBlockDispatch(query, store, block, sums, epsilon0, prune_threshold,
                         dist_sq, lower_bounds);
  return FoldAliveMask(mask, dead, count, lane_mask);
}

std::uint32_t EstimateBlockFusedPrunedScalar(
    const QuantizedQuery& query, const RabitqCodeStore& store,
    std::size_t block, const std::uint32_t* sums, float epsilon0,
    float prune_threshold, const std::uint8_t* dead, float* dist_sq,
    float* lower_bounds, std::uint32_t lane_mask) {
  const std::size_t begin = block * kFastScanBlockSize;
  const std::size_t count = std::min(kFastScanBlockSize, store.size() - begin);
  const std::uint32_t mask =
      FusedBlockScalar(query, store, begin, sums, count, epsilon0,
                       prune_threshold, dist_sq, lower_bounds);
  return FoldAliveMask(mask, dead, count, lane_mask);
}

std::uint32_t BitwiseDotQueryMulti(const QuantizedQuery& query,
                                   const RabitqCodeStore& store,
                                   std::size_t i) {
  std::vector<std::uint64_t> plane(store.words_per_code());
  std::uint32_t s = 0;
  for (std::size_t p = 0; p < store.bits_per_dim(); ++p) {
    store.UnpackPlane(i, p, plane.data());
    s += BitwiseDotQuery(query, plane.data()) << p;
  }
  return s;
}

DistanceEstimate EstimateDistanceMulti(const QuantizedQuery& query,
                                       const RabitqCodeStore& store,
                                       std::size_t i, float epsilon0) {
  const std::uint32_t s = BitwiseDotQueryMulti(query, store, i);
  const CodeFactors f = store.factors(i);
  DistanceEstimate est;
  // Shares XQbarMulti and FinishLane with the block kernels, so the
  // single-code path is bit-identical to the fused ones by construction.
  est.ip = XQbarMulti(static_cast<float>(s), f.m_code_sum, f.m_alpha,
                      f.m_beta, query) *
           f.m_inv_oo;
  FinishLane(est.ip, f.f_sq, f.f_cross, f.m_err, query, epsilon0,
             &est.dist_sq, &est.lower_bound_sq);
  est.ip_error = epsilon0 > 0.0f ? f.m_err * epsilon0 : 0.0f;
  return est;
}

void AccumulateMultiBlockSums(const QuantizedQuery& query,
                              const RabitqCodeStore& store, std::size_t block,
                              const std::uint32_t* sign_sums,
                              std::uint32_t* multi_sums) {
  const std::size_t top = store.bits_per_dim() - 1;
  for (std::size_t k = 0; k < kFastScanBlockSize; ++k) {
    multi_sums[k] = sign_sums[k] << top;
  }
  std::uint32_t tmp[kFastScanBlockSize];
  for (std::size_t j = 0; j < top; ++j) {
    const FastScanCodes& packed = store.extra_packed(j);
    FastScanAccumulateBlock(packed.BlockPtr(block), packed.num_segments,
                            query.luts.data(), tmp);
    for (std::size_t k = 0; k < kFastScanBlockSize; ++k) {
      multi_sums[k] += tmp[k] << j;
    }
  }
}

std::uint32_t EstimateBlockMultiPruned(const QuantizedQuery& query,
                                       const RabitqCodeStore& store,
                                       std::size_t block,
                                       const std::uint32_t* multi_sums,
                                       float epsilon0, float prune_threshold,
                                       std::uint32_t candidate_mask,
                                       float* dist_sq, float* lower_bounds) {
  const std::size_t begin = block * kFastScanBlockSize;
  const std::size_t count = std::min(kFastScanBlockSize, store.size() - begin);
#if defined(__AVX2__) && defined(__FMA__)
  if (count == kFastScanBlockSize) {
    return MultiBlockAvx2(query, store, begin, multi_sums, epsilon0,
                          prune_threshold, candidate_mask, dist_sq,
                          lower_bounds);
  }
#endif
  return MultiBlockScalar(query, store, begin, multi_sums, count, epsilon0,
                          prune_threshold, candidate_mask, dist_sq,
                          lower_bounds);
}

std::uint32_t EstimateBlockMultiPrunedScalar(
    const QuantizedQuery& query, const RabitqCodeStore& store,
    std::size_t block, const std::uint32_t* multi_sums, float epsilon0,
    float prune_threshold, std::uint32_t candidate_mask, float* dist_sq,
    float* lower_bounds) {
  const std::size_t begin = block * kFastScanBlockSize;
  const std::size_t count = std::min(kFastScanBlockSize, store.size() - begin);
  return MultiBlockScalar(query, store, begin, multi_sums, count, epsilon0,
                          prune_threshold, candidate_mask, dist_sq,
                          lower_bounds);
}

void AccumulateBlockSums(const QuantizedQuery& query,
                         const RabitqCodeStore& store, std::size_t block,
                         bool fast_scan, std::uint32_t* sums) {
  if (fast_scan) {
    const FastScanCodes& packed = store.packed();
    FastScanAccumulateBlock(packed.BlockPtr(block), packed.num_segments,
                            query.luts.data(), sums);
    return;
  }
  const std::size_t begin = block * kFastScanBlockSize;
  const std::size_t count = std::min(kFastScanBlockSize, store.size() - begin);
  const std::size_t sign_plane = store.bits_per_dim() - 1;
  std::vector<std::uint64_t> bits(store.words_per_code());
  for (std::size_t k = 0; k < count; ++k) {
    store.UnpackPlane(begin + k, sign_plane, bits.data());
    sums[k] = BitwiseDotQuery(query, bits.data());
  }
}

void PrefetchBlockData(const RabitqCodeStore& store, std::size_t block) {
#if defined(__GNUC__) || defined(__clang__)
  const FastScanCodes& packed = store.packed();
  if (block >= packed.num_blocks) return;
  const std::uint8_t* p = packed.BlockPtr(block);
  const std::size_t bytes = packed.num_segments * 16;
  for (std::size_t off = 0; off < bytes; off += 64) {
    __builtin_prefetch(p + off, /*rw=*/0, /*locality=*/3);
  }
  const std::size_t begin = block * kFastScanBlockSize;
  __builtin_prefetch(store.f_sq_data() + begin, 0, 3);
  __builtin_prefetch(store.f_cross_data() + begin, 0, 3);
  __builtin_prefetch(store.f_inv_oo_data() + begin, 0, 3);
  __builtin_prefetch(store.f_err_data() + begin, 0, 3);
  __builtin_prefetch(store.bit_count_data() + begin, 0, 3);
#else
  (void)store;
  (void)block;
#endif
}

void EstimateAll(const QuantizedQuery& query, const RabitqCodeStore& store,
                 float epsilon0, float* dist_sq, float* lower_bounds) {
  // No pruning here (+inf threshold); the dispatcher's scalar tail writes
  // exactly the partial block's lanes, so results land in place.
  const bool fast_scan = query.has_exact_luts;
  const std::size_t num_blocks =
      (store.size() + kFastScanBlockSize - 1) / kFastScanBlockSize;
  std::uint32_t sums[kFastScanBlockSize];
  for (std::size_t block = 0; block < num_blocks; ++block) {
    const std::size_t begin = block * kFastScanBlockSize;
    PrefetchBlockData(store, block + 1);
    AccumulateBlockSums(query, store, block, fast_scan, sums);
    float* const lb = lower_bounds == nullptr ? nullptr : lower_bounds + begin;
    FusedBlockDispatch(query, store, block, sums, epsilon0,
                       std::numeric_limits<float>::infinity(), dist_sq + begin,
                       lb);
  }
}

}  // namespace rabitq
