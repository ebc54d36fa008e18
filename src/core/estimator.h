// RaBitQ distance estimation (paper Sections 3.2-3.3):
//   est <o,q>      = <x-bar, q-bar> / <o-bar, o>        (unbiased, Thm 3.2)
//   est ||or-qr||^2 = d_o^2 + d_q^2 - 2 d_o d_q est<o,q> (Eq. 2)
//   error bound    = sqrt((1-<o,o-bar>^2)/<o,o-bar>^2) * eps0/sqrt(B-1)
//                                                        (Eq. 14/16)
// The paper's estimator is fundamentally an INNER-PRODUCT estimator --
// est<o,q> is recovered first, L2 derived from it -- so the same kernels
// serve every metric: the "distance" they assemble is a generic ascending
// score, base + cross * est<o,q>, whose ingredients (base, the f_sq /
// f_cross factors) were baked per-metric at encode/preprocess time (see
// DeriveFactors in rabitq.h and QuantizedQuery::q_base). Under kL2 the score is the squared
// distance of Eq. 2; under kInnerProduct/kCosine it is the negated inner
// product -<o_r, q_r>, with the halved f_cross doubling as the IP-analogue
// error half-width. The two exact edge blends (q_dist == 0, and a
// zero-residual code, read as f_cross == 0 since f_cross = 2d under kL2)
// are L2-only and gated on query.metric identically in every path.
// Two ways to compute the integer <x_b, q-bar_u> -- B_q bitwise and+popcount
// passes (Eq. 22), or the fast-scan LUT kernel (Section 3.3.2, lossless
// only when query.has_exact_luts, i.e. B_q <= 6). The query picks: every
// block sum comes from the LUTs exactly when has_exact_luts, from bitwise
// passes otherwise. The entry points:
//   * single code, always bitwise: EstimateDistance (1-bit) and
//     EstimateDistanceBiased, the uncorrected Table 7 ablation;
//   * block of 32 codes: AccumulateBlockSums (sign plane) and
//     AccumulateMultiBlockSums (the weighted B_d-bit sum) fill the block's
//     sums, then a fused float assembly: EstimateBlockFusedPruned (1-bit)
//     and EstimateBlockMultiPruned (the B_d-bit refine), each with a
//     bit-exact *Scalar reference; PrefetchBlockData streams the next
//     block in;
//   * whole store: EstimateAll runs the 1-bit block path over it.
//
// The kernels read only the store's packed planes and its resident
// factors: bit_count, f_sq, f_cross, f_inv_oo and f_err for the 1-bit
// lane, plus m_code_sum, m_alpha, m_beta, m_inv_oo and m_err for the
// multi-bit refine. Per 1-bit lane that is five loads, two int->float
// converts and six mul/add/fma -- no sqrt, no divide, no branch. Every path (single-code, fused scalar, fused AVX2) performs the
// SAME operations in the SAME order per lane (explicit std::fma mirroring
// the SIMD fmadd/fnmadd), which is what makes the bitwise path, the scalar
// reference and the 8-wide kernel agree bit-for-bit (tested).

#ifndef RABITQ_CORE_ESTIMATOR_H_
#define RABITQ_CORE_ESTIMATOR_H_

#include <algorithm>
#include <cstdint>

#include "core/query.h"
#include "core/rabitq.h"
#include "quant/fastscan.h"

namespace rabitq {

/// One estimated distance plus its confidence information.
struct DistanceEstimate {
  float ip = 0.0f;             // estimate of <o, q> (unit vectors)
  float dist_sq = 0.0f;        // estimate of ||o_r - q_r||^2
  float lower_bound_sq = 0.0f; // dist_sq lower bound at confidence eps0
  float ip_error = 0.0f;       // half-width of the <o,q> confidence interval
};

/// Full single-code estimate of code `i` of `store`. `epsilon0` <= 0 skips
/// the bound computation (lower_bound_sq = dist_sq).
DistanceEstimate EstimateDistance(const QuantizedQuery& query,
                                  const RabitqCodeStore& store, std::size_t i,
                                  float epsilon0);

/// Naive (PQ-style, biased) estimator <o-bar, q> used by the Table 7
/// ablation: same bit arithmetic but WITHOUT dividing by <o-bar, o>.
DistanceEstimate EstimateDistanceBiased(const QuantizedQuery& query,
                                        const RabitqCodeStore& store,
                                        std::size_t i);

/// Fused assembly over one block (32 codes) given its sums `sums`
/// (<x_b, q-bar_u> per lane, from either source: see AccumulateBlockSums):
/// writes estimated distances and eps0 lower bounds (`lower_bounds` may be
/// null) and returns a survivors bitmask. Output buffers must hold
/// kFastScanBlockSize floats -- a full block is stored 8 lanes at a time,
/// and lanes past size() on the tail block are left untouched. AVX2+FMA
/// when available, bit-identical to the scalar reference. Reads only the
/// store's factor arrays, never its packed planes or the query's LUTs, so
/// has_exact_luts constrains the LUT source of `sums`, not this kernel.
///
/// The mask is the scan's candidate set, pruned in-kernel: bit k set
/// iff lane k is a real code (k < count for a tail block), is not
/// tombstoned (`dead`, 32 flags for this block, may be null when the list
/// has no tombstones), is allowed by `lane_mask` (bit k clear drops lane k
/// -- the per-query IdFilter's pushdown, all-ones when unfiltered) and its
/// lower bound does not exceed `prune_threshold` (the caller's current
/// top-k threshold; pass +infinity -- NOT FLT_MAX -- to disable pruning,
/// e.g. under the estimate-only policies or while the heap is still
/// filling: a lower bound that overflowed to +inf must survive then, and
/// only `> inf` guarantees that). The caller walks set bits only, fusing
/// candidate selection into the scan.
std::uint32_t EstimateBlockFusedPruned(const QuantizedQuery& query,
                                       const RabitqCodeStore& store,
                                       std::size_t block,
                                       const std::uint32_t* sums,
                                       float epsilon0, float prune_threshold,
                                       const std::uint8_t* dead,
                                       float* dist_sq, float* lower_bounds,
                                       std::uint32_t lane_mask = 0xFFFFFFFFu);

/// Bit-exact scalar reference for EstimateBlockFusedPruned (mirrors the
/// kernel's per-lane operation order with explicit std::fma).
std::uint32_t EstimateBlockFusedPrunedScalar(
    const QuantizedQuery& query, const RabitqCodeStore& store,
    std::size_t block, const std::uint32_t* sums, float epsilon0,
    float prune_threshold, const std::uint8_t* dead, float* dist_sq,
    float* lower_bounds, std::uint32_t lane_mask = 0xFFFFFFFFu);

// --- Multi-bit refine kernels (stores with bits_per_dim > 1) --------------
//
// Stage 2 of the two-stage scan: the 1-bit kernels above prune with the
// sign plane, then the survivors (under the estimate-only policies, every
// live allowed code) are re-estimated from the full B_d-bit code. With
// x-bar_i = m_alpha * u_i + m_beta (see rabitq.h) the assembly is
//   <x-bar, q-bar> = m_alpha * (step * S + lo * sum(u)) + m_beta * kq,
//   S = sum_j 2^j <plane_j, q-bar_u>   (sign plane = MSB plane)
// followed by the same cross/base/bound arithmetic as the 1-bit lane, using
// the tighter m_inv_oo / m_err factors. Fused AVX2 and scalar reference
// follow the 1-bit discipline: identical operation order per lane, so they
// agree bit-for-bit with each other (tested).

/// Accumulates the weighted multi-bit sums S for one packed block into
/// `multi_sums` (all kFastScanBlockSize lanes): `sign_sums` are the
/// sign-plane sums the stage-1 scan already produced (AccumulateBlockSums;
/// reused, not recomputed), the extra planes are accumulated here from the
/// same source AccumulateBlockSums picks. Requires bits_per_dim() > 1.
void AccumulateMultiBlockSums(const QuantizedQuery& query,
                              const RabitqCodeStore& store, std::size_t block,
                              const std::uint32_t* sign_sums,
                              std::uint32_t* multi_sums);

/// Stage-2 refine over one block: assembles the multi-bit estimate and
/// lower bound for the lanes set in `candidate_mask` (stage-1 survivors)
/// from their weighted sums `multi_sums` (AccumulateMultiBlockSums; the
/// SIMD path reads whole 8-lane groups, so the other lanes must hold
/// initialized values, which it ignores) and returns the refined survivors
/// mask -- candidate lanes whose multi-bit lower bound does not exceed
/// `prune_threshold` (same strict >, same +inf no-prune sentinel as
/// EstimateBlockFusedPruned). Outputs at lanes outside `candidate_mask`
/// are unspecified (the SIMD path may write whole 8-lane groups, and skips
/// groups with no candidates entirely).
std::uint32_t EstimateBlockMultiPruned(const QuantizedQuery& query,
                                       const RabitqCodeStore& store,
                                       std::size_t block,
                                       const std::uint32_t* multi_sums,
                                       float epsilon0, float prune_threshold,
                                       std::uint32_t candidate_mask,
                                       float* dist_sq, float* lower_bounds);

/// Bit-exact scalar reference for EstimateBlockMultiPruned.
std::uint32_t EstimateBlockMultiPrunedScalar(
    const QuantizedQuery& query, const RabitqCodeStore& store,
    std::size_t block, const std::uint32_t* multi_sums, float epsilon0,
    float prune_threshold, std::uint32_t candidate_mask, float* dist_sq,
    float* lower_bounds);

/// Fills `sums` with <x_b, q-bar_u> for all kFastScanBlockSize lanes of
/// block `block` (lanes past size() on the tail block hold the packed
/// padding's sums; callers read lanes < size()). The fast-scan LUT kernel
/// when query.has_exact_luts; otherwise the block's sign plane is unpacked
/// in one pass and each lane takes B_q bitwise passes, which works at any
/// B_q. The two sources are equal.
void AccumulateBlockSums(const QuantizedQuery& query,
                         const RabitqCodeStore& store, std::size_t block,
                         std::uint32_t* sums);

/// Software-prefetches block `block`'s packed codes and factor arrays into
/// cache; no-op past the last block. The block scan loops (EstimateAll, the
/// IVF list scan) call this one block ahead so the next block's
/// data streams in while the current block is assembled.
void PrefetchBlockData(const RabitqCodeStore& store, std::size_t block);

/// Estimates all codes in `store` through the 1-bit block path, with the
/// sums AccumulateBlockSums picks; `dist_sq` (and
/// `lower_bounds` if non-null) must hold store.size() floats.
void EstimateAll(const QuantizedQuery& query, const RabitqCodeStore& store,
                 float epsilon0, float* dist_sq, float* lower_bounds);

}  // namespace rabitq

#endif  // RABITQ_CORE_ESTIMATOR_H_
