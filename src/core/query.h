// RaBitQ query-phase preprocessing (paper Section 3.3 and Algorithm 2).
// For one (query, centroid) pair this computes, once, everything the
// per-code estimator consumes:
//   q' = P^T ((q_r - c) / ||q_r - c||)           inverse-rotated unit query
//   q-bar_u = randomized B_q-bit quantization     (Eq. 18, unbiased)
//   B_q bit planes of q-bar_u                     (Eq. 22 bitwise path)
//   B/4 nibble LUTs over q-bar_u                  (Section 3.3.2 batch path)
// and the scalar factors of Eq. 20. The cost is shared by every data vector
// scanned under this centroid.
//
// The rounding dithers are a counter-keyed stream (quant/scalar_quantizer.h):
// each preparation draws ONE 64-bit key from the caller's Rng and dimension
// i's dither is DitherUniform(key, i). The IVF scan seeds one Rng per
// (query seed, list), so a list's rounding is a pure function of that pair.
// Theorem 3.3 needs only uniform, independent dithers; the stream's tests
// check both. Preparation allocates nothing once the struct's buffers have
// capacity, and the planes and LUTs are built with AVX2 where available
// (byte-identical to the scalar fallback).

#ifndef RABITQ_CORE_QUERY_H_
#define RABITQ_CORE_QUERY_H_

#include <cstdint>

#include "core/metric.h"
#include "core/rabitq.h"
#include "util/aligned_buffer.h"
#include "util/prng.h"
#include "util/status.h"

namespace rabitq {

/// Preprocessed query state relative to one centroid.
struct QuantizedQuery {
  std::size_t total_bits = 0;   // B
  std::size_t num_words = 0;    // B / 64
  int query_bits = 0;           // B_q
  float q_dist = 0.0f;          // ||q_r - c||

  /// Metric the estimator should assemble scores in. Set by Prepare*; the
  /// estimator reads it to pick the score algebra and (for kL2 only) the
  /// exact q_dist==0 / d==0 edge blends.
  Metric metric = Metric::kL2;
  /// Metric-dependent additive base of the assembled score:
  ///   kL2:         q_dist^2                      (score = d^2 + q^2 - cross)
  ///   kIP/kCosine: (q_dist^2 - ||q||^2) / 2      (score = g + h - cross)
  /// Precomputed here so the kernel's shape -- one fma against one scalar
  /// base -- is identical across metrics.
  float q_base = 0.0f;

  // Randomized scalar quantization of q' (Section 3.3.1).
  float lo = 0.0f;              // v_l
  float step = 0.0f;            // Delta
  std::uint32_t sum_qu = 0;     // sum_i q-bar_u[i]
  AlignedVector<std::uint8_t> qu;  // B entries in [0, 2^B_q)

  // Eq. 20 rearranged: <x-bar, q-bar> = ip_scale * <x_b, q-bar_u>
  //                                    + pop_scale * popcount(x_b) + bias.
  float ip_scale = 0.0f;   // 2*Delta/sqrt(B)
  float pop_scale = 0.0f;  // 2*v_l/sqrt(B)
  float bias = 0.0f;       // -Delta/sqrt(B)*sum_qu - sqrt(B)*v_l

  // Multi-bit assembly companion (codes with bits_per_dim > 1): with
  // x-bar_i = m_alpha * u_i + m_beta,
  //   <x-bar, q-bar> = m_alpha * (step * S + lo * sum(u)) + m_beta * kq
  // where S = sum_i u_i * qu_i (accumulated from the code's bit planes) and
  //   kq = step * sum_qu + B * lo
  // is the only query-side scalar the refine kernel needs beyond (step, lo).
  float kq = 0.0f;

  // Bitwise single-code path: B_q planes of B bits each (Eq. 22).
  AlignedVector<std::uint64_t> bit_planes;

  // Batch fast-scan path: B/4 LUTs of 16 u8 entries; exact (lossless) when
  // 4 * (2^B_q - 1) <= 255, i.e. B_q <= 6. Empty otherwise.
  AlignedVector<std::uint8_t> luts;
  bool has_exact_luts = false;

  // Workspace for the rotated unit residual q' (B floats after a Prepare*
  // call; zeros for a degenerate query), not an output. Lives in the struct
  // so that reusing one QuantizedQuery across probes and queries (as the
  // serving engine's per-worker scratch does) makes the Prepare* calls
  // allocation-free once capacity is established.
  AlignedVector<float> unit_scratch;

  const std::uint64_t* Plane(int j) const {
    return bit_planes.data() + static_cast<std::size_t>(j) * num_words;
  }
};

/// Builds the quantized query for `query_raw` against `centroid` (nullptr =
/// origin). `rng` supplies the randomized rounding's dither key (one
/// NextU64 per call); reusing one generator across queries keeps rounding
/// independent, as Theorem 3.3 assumes.
/// `query_bits_override` > 0 replaces the encoder's configured B_q (used by
/// the Fig. 6 sweep; codes are B_q-independent so no re-encoding is needed).
///
/// `metric` selects the score algebra baked into the output (see
/// QuantizedQuery::q_base). For kCosine the caller must pass an ALREADY
/// NORMALIZED query -- normalization happens once at the outermost layer
/// that owns the query buffer, never here (re-normalizing a normalized
/// vector is not a bitwise no-op). For kInnerProduct / kCosine this
/// overload computes ||query_raw||^2 itself.
Status PrepareQuery(const RabitqEncoder& encoder, const float* query_raw,
                    const float* centroid, Rng* rng, QuantizedQuery* out,
                    int query_bits_override = 0, Metric metric = Metric::kL2);

/// Cost-sharing path for multi-cluster probing (the paper's "cost shared by
/// all the data vectors"): since P^T is linear,
///   P^T((q - c) / ||q - c||) = (P^T q - P^T c) / ||q - c||,
/// so the expensive rotation of q happens ONCE per query and each probed
/// cluster only pays a subtract-and-scale over B floats. `P^T c` per
/// centroid is precomputed in the index phase (see IvfRabitqIndex).
///
/// `rotated_query` = P^T q_r (B floats, from RotateQueryOnce);
/// `rotated_centroid` = P^T c (B floats; nullptr = origin);
/// `q_dist` = ||q_r - c|| computed in the original space.
///
/// For kInnerProduct / kCosine the caller also passes `query_norm_sq` =
/// ||q||^2 of the (for cosine: pre-normalized) original-space query, since
/// only the rotated view is in hand here; it feeds QuantizedQuery::q_base
/// and is ignored under kL2.
Status PrepareQueryFromRotated(const RabitqEncoder& encoder,
                               const float* rotated_query,
                               const float* rotated_centroid, float q_dist,
                               Rng* rng, QuantizedQuery* out,
                               int query_bits_override = 0,
                               Metric metric = Metric::kL2,
                               float query_norm_sq = 0.0f);

/// Computes P^T q_r into `out` (encoder.total_bits() floats).
void RotateQueryOnce(const RabitqEncoder& encoder, const float* query_raw,
                     float* out);

}  // namespace rabitq

#endif  // RABITQ_CORE_QUERY_H_
