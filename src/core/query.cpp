#include "core/query.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "linalg/vector_ops.h"
#include "quant/scalar_quantizer.h"
#include "util/bit_ops.h"

namespace rabitq {

namespace {

// Query coincides with the centroid: every distance is exactly
// dist_to_centroid^2 and the estimator short-circuits on q_dist == 0.
// Every output (and the workspace) is reset, so a reused QuantizedQuery
// carries nothing over from its previous query.
void FillDegenerate(std::size_t b, QuantizedQuery* out) {
  out->qu.assign(b, 0);
  out->bit_planes.assign(
      static_cast<std::size_t>(out->query_bits) * out->num_words, 0);
  out->luts.assign((b / 4) * 16, 0);
  out->has_exact_luts = true;
  out->unit_scratch.assign(b, 0.0f);
  out->lo = out->step = out->ip_scale = out->pop_scale = out->bias = 0.0f;
  out->kq = 0.0f;
  out->sum_qu = 0;
}

// Bakes the metric-dependent additive score base into the query (see
// QuantizedQuery::q_base). Requires out->q_dist to be final. Under kL2 the
// expression is exactly the q_dist * q_dist the kernels used to compute
// locally, keeping L2 assembly bitwise unchanged.
void SetMetricBase(Metric metric, float query_norm_sq, QuantizedQuery* out) {
  out->metric = metric;
  const float q_sq = out->q_dist * out->q_dist;
  out->q_base =
      metric == Metric::kL2 ? q_sq : 0.5f * (q_sq - query_norm_sq);
}

// Bit planes (Eq. 22): plane j, bit i = j-th bit of qu[i]. Every word of
// the B_q planes is written.
void BuildBitPlanes(const std::uint8_t* qu, std::size_t b, int query_bits,
                    std::size_t num_words, std::uint64_t* planes) {
  std::fill_n(planes, static_cast<std::size_t>(query_bits) * num_words, 0);
  std::size_t i = 0;
#if defined(__AVX2__)
  // Shift-and-movemask transpose: shifting each byte's bit j up to its top
  // bit lets one movemask gather bit j of 32 entries, i.e. 32 bits of
  // plane j. (A 16-bit shift only drags lower bits into each byte's low
  // end; the top bit is the byte's own bit j.)
  for (; i + 32 <= b; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(qu + i));
    for (int j = 0; j < query_bits; ++j) {
      const std::uint32_t bits = static_cast<std::uint32_t>(_mm256_movemask_epi8(
          _mm256_sll_epi16(v, _mm_cvtsi32_si128(7 - j))));
      std::memcpy(reinterpret_cast<std::uint8_t*>(planes + j * num_words) +
                      i / 8,
                  &bits, sizeof(bits));
    }
  }
#endif
  for (; i < b; ++i) {
    for (int j = 0; j < query_bits; ++j) {
      if ((qu[i] >> j) & 1) SetBit(planes + j * num_words, i);
    }
  }
}

#if defined(__AVX2__)
// Shuffle controls for the nibble LUTs: byte p of a 128-bit half picks the
// half's 4-entry segment entry `bit` (offset 4 in the upper half) when
// pattern p has that bit set, and is zeroed (0x80) otherwise. Adding 8 to
// a control moves it to the next two segments; 0x80 + 8 still zeroes.
constexpr std::array<std::array<std::uint8_t, 32>, 4> MakeLutPicks() {
  std::array<std::array<std::uint8_t, 32>, 4> picks{};
  for (int bit = 0; bit < 4; ++bit) {
    for (int p = 0; p < 32; ++p) {
      const int pattern = p % 16;
      const int half = p / 16;
      picks[bit][p] = (pattern >> bit) & 1
                          ? static_cast<std::uint8_t>(4 * half + bit)
                          : std::uint8_t{0x80};
    }
  }
  return picks;
}
alignas(32) constexpr std::array<std::array<std::uint8_t, 32>, 4> kLutPicks =
    MakeLutPicks();
#endif

// Nibble LUTs for the fast-scan batch path: LUT[t][pattern] = sum of
// qu[4t + bit] over the set bits of the pattern. Requires every entry to
// fit a byte (4 * (2^B_q - 1) <= 255).
void BuildLuts(const std::uint8_t* qu, std::size_t num_segments,
               std::uint8_t* luts) {
  std::size_t t = 0;
#if defined(__AVX2__)
  // Four segments (16 entries) per step: pattern masks applied by byte
  // shuffles of the broadcast entries, then byte adds, as fast-scan does.
  __m256i pick[4];
  for (int bit = 0; bit < 4; ++bit) {
    pick[bit] = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kLutPicks[bit].data()));
  }
  const __m256i next_pair = _mm256_set1_epi8(8);
  for (; t + 4 <= num_segments; t += 4) {
    const __m256i src = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(qu + 4 * t)));
    __m256i first = _mm256_shuffle_epi8(src, pick[0]);
    __m256i second =
        _mm256_shuffle_epi8(src, _mm256_add_epi8(pick[0], next_pair));
    for (int bit = 1; bit < 4; ++bit) {
      first = _mm256_add_epi8(first, _mm256_shuffle_epi8(src, pick[bit]));
      second = _mm256_add_epi8(
          second,
          _mm256_shuffle_epi8(src, _mm256_add_epi8(pick[bit], next_pair)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(luts + 16 * t), first);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(luts + 16 * t + 32),
                        second);
  }
#endif
  for (; t < num_segments; ++t) {
    const std::uint8_t* q_seg = qu + t * 4;
    std::uint8_t* lut = luts + t * 16;
    // The 16 subset sums by the doubling trick.
    lut[0] = 0;
    for (int bit = 0; bit < 4; ++bit) {
      const int half = 1 << bit;
      for (int pattern = 0; pattern < half; ++pattern) {
        lut[half + pattern] =
            static_cast<std::uint8_t>(lut[pattern] + q_seg[bit]);
      }
    }
  }
}

// Shared tail: randomized scalar quantization of the rotated unit residual
// q' (B floats) straight into out->qu, under one dither key drawn from
// `rng`; then the Eq. 20 constants, the bit planes and the nibble LUTs.
// Allocation-free once the buffers have capacity.
Status QuantizeRotatedUnit(const float* q_prime, std::size_t b, Rng* rng,
                           QuantizedQuery* out) {
  out->qu.resize(b);
  RandomizedQuantizeRange range;
  RABITQ_RETURN_IF_ERROR(RandomizedUniformQuantize(
      q_prime, b, out->query_bits, rng->NextU64(), out->qu.data(), &range));
  out->lo = range.lo;
  out->step = range.step;
  out->sum_qu = range.sum;

  const float sqrt_b = std::sqrt(static_cast<float>(b));
  out->ip_scale = 2.0f * out->step / sqrt_b;
  out->pop_scale = 2.0f * out->lo / sqrt_b;
  out->bias = -out->step / sqrt_b * static_cast<float>(out->sum_qu) -
              sqrt_b * out->lo;
  out->kq = out->step * static_cast<float>(out->sum_qu) +
            static_cast<float>(b) * out->lo;

  out->bit_planes.resize(static_cast<std::size_t>(out->query_bits) *
                         out->num_words);
  BuildBitPlanes(out->qu.data(), b, out->query_bits, out->num_words,
                 out->bit_planes.data());

  // Exact in u8 iff the largest possible entry 4*(2^B_q - 1) fits.
  const int max_entry = 4 * ((1 << out->query_bits) - 1);
  out->has_exact_luts = max_entry <= 255;
  if (out->has_exact_luts) {
    out->luts.resize((b / 4) * 16);
    BuildLuts(out->qu.data(), b / 4, out->luts.data());
  } else {
    out->luts.clear();
  }
  return Status::Ok();
}

}  // namespace

void RotateQueryOnce(const RabitqEncoder& encoder, const float* query_raw,
                     float* out) {
  encoder.rotator().InverseRotate(query_raw, out);
}

Status PrepareQuery(const RabitqEncoder& encoder, const float* query_raw,
                    const float* centroid, Rng* rng, QuantizedQuery* out,
                    int query_bits_override, Metric metric) {
  if (query_raw == nullptr || rng == nullptr || out == nullptr) {
    return Status::InvalidArgument("bad arguments");
  }
  if (query_bits_override < 0 || query_bits_override > 8) {
    return Status::InvalidArgument("query_bits_override out of range");
  }
  const std::size_t dim = encoder.dim();
  const std::size_t b = encoder.total_bits();
  out->total_bits = b;
  out->num_words = WordsForBits(b);
  out->query_bits = query_bits_override > 0 ? query_bits_override
                                            : encoder.config().query_bits;

  // The workspace holds q' (B floats) followed by the residual (dim).
  out->unit_scratch.resize(b + dim);
  float* residual = out->unit_scratch.data() + b;
  if (centroid != nullptr) {
    Subtract(query_raw, centroid, residual, dim);
  } else {
    std::copy_n(query_raw, dim, residual);
  }
  out->q_dist = Norm(residual, dim);
  const float query_norm_sq =
      metric == Metric::kL2 ? 0.0f : SquaredNorm(query_raw, dim);
  SetMetricBase(metric, query_norm_sq, out);
  if (out->q_dist == 0.0f) {
    FillDegenerate(b, out);
    return Status::Ok();
  }
  ScaleInPlace(residual, 1.0f / out->q_dist, dim);

  // q' = P^T q (padded).
  encoder.rotator().InverseRotate(residual, out->unit_scratch.data());
  out->unit_scratch.resize(b);
  return QuantizeRotatedUnit(out->unit_scratch.data(), b, rng, out);
}

Status PrepareQueryFromRotated(const RabitqEncoder& encoder,
                               const float* rotated_query,
                               const float* rotated_centroid, float q_dist,
                               Rng* rng, QuantizedQuery* out,
                               int query_bits_override, Metric metric,
                               float query_norm_sq) {
  if (rotated_query == nullptr || rng == nullptr || out == nullptr) {
    return Status::InvalidArgument("bad arguments");
  }
  if (query_bits_override < 0 || query_bits_override > 8) {
    return Status::InvalidArgument("query_bits_override out of range");
  }
  if (q_dist < 0.0f) return Status::InvalidArgument("negative q_dist");
  const std::size_t b = encoder.total_bits();
  out->total_bits = b;
  out->num_words = WordsForBits(b);
  out->query_bits = query_bits_override > 0 ? query_bits_override
                                            : encoder.config().query_bits;
  out->q_dist = q_dist;
  SetMetricBase(metric, query_norm_sq, out);
  if (q_dist == 0.0f) {
    FillDegenerate(b, out);
    return Status::Ok();
  }
  // q' = (P^T q - P^T c) / ||q - c||: one subtract-and-scale over B floats.
  out->unit_scratch.resize(b);
  float* rotated = out->unit_scratch.data();
  const float inv = 1.0f / q_dist;
  if (rotated_centroid != nullptr) {
    for (std::size_t i = 0; i < b; ++i) {
      rotated[i] = (rotated_query[i] - rotated_centroid[i]) * inv;
    }
  } else {
    for (std::size_t i = 0; i < b; ++i) rotated[i] = rotated_query[i] * inv;
  }
  return QuantizeRotatedUnit(rotated, b, rng, out);
}

}  // namespace rabitq
