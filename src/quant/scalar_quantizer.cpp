#include "quant/scalar_quantizer.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace rabitq {

namespace {

// One dimension's Eq. (18) level; the AVX2 loop below performs the same
// float operations lane-wise, so both give the same level.
inline std::uint32_t RoundLevel(float v, float lo, float step, int levels,
                                std::uint64_t key, std::uint32_t i) {
  const float scaled = (v - lo) / step;
  const std::int32_t level =
      static_cast<std::int32_t>(scaled + DitherUniform(key, i));
  return static_cast<std::uint32_t>(std::clamp(level, 0, levels));
}

#if defined(__AVX2__)

// Avalanche32 on eight lanes.
inline __m256i Avalanche32x8(__m256i x) {
  x = _mm256_xor_si256(x, _mm256_srli_epi32(x, 16));
  x = _mm256_mullo_epi32(x, _mm256_set1_epi32(0x7FEB352D));
  x = _mm256_xor_si256(x, _mm256_srli_epi32(x, 15));
  x = _mm256_mullo_epi32(x, _mm256_set1_epi32(static_cast<int>(0x846CA68Bu)));
  return _mm256_xor_si256(x, _mm256_srli_epi32(x, 16));
}

// Levels of dimensions [0, n8) with n8 a multiple of 8; returns their sum.
std::uint32_t RoundLevelsAvx2(const float* vec, std::size_t n8, float lo,
                              float step, int levels, std::uint64_t key,
                              std::uint8_t* codes) {
  const __m256 lo_v = _mm256_set1_ps(lo);
  const __m256 step_v = _mm256_set1_ps(step);
  const __m256 unit = _mm256_set1_ps(0x1.0p-24f);
  const __m256i max_level = _mm256_set1_epi32(levels);
  const __m256i zero = _mm256_setzero_si256();
  // Counter i's pre-hash word DitherOffset(key) + i * kDitherWeyl, stepped
  // eight counters at a time.
  const __m256i weyl = _mm256_set1_epi32(static_cast<int>(kDitherWeyl));
  __m256i counter = _mm256_add_epi32(
      _mm256_set1_epi32(static_cast<int>(DitherOffset(key))),
      _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7), weyl));
  const __m256i counter_step = _mm256_slli_epi32(weyl, 3);
  __m256i sum = zero;
  for (std::size_t i = 0; i < n8; i += 8) {
    const __m256i h = Avalanche32x8(counter);
    counter = _mm256_add_epi32(counter, counter_step);
    const __m256 u =
        _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_srli_epi32(h, 8)), unit);
    const __m256 scaled =
        _mm256_div_ps(_mm256_sub_ps(_mm256_loadu_ps(vec + i), lo_v), step_v);
    __m256i level = _mm256_cvttps_epi32(_mm256_add_ps(scaled, u));
    level = _mm256_min_epi32(_mm256_max_epi32(level, zero), max_level);
    sum = _mm256_add_epi32(sum, level);
    // Levels fit a byte: pack each 128-bit half's four to its low dword.
    const __m256i bytes = _mm256_packus_epi16(_mm256_packus_epi32(level, level),
                                              zero);
    const std::uint32_t low = static_cast<std::uint32_t>(
        _mm256_cvtsi256_si32(bytes));
    const std::uint32_t high =
        static_cast<std::uint32_t>(_mm256_extract_epi32(bytes, 4));
    std::memcpy(codes + i, &low, 4);
    std::memcpy(codes + i + 4, &high, 4);
  }
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(sum),
                            _mm256_extracti128_si256(sum, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(s));
}

#endif  // defined(__AVX2__)

}  // namespace

Status RandomizedUniformQuantize(const float* vec, std::size_t dim, int bits,
                                 std::uint64_t key, std::uint8_t* codes,
                                 RandomizedQuantizeRange* range) {
  if (bits < 1 || bits > 8) {
    return Status::InvalidArgument("bits must be in [1, 8]");
  }
  if (dim == 0 || vec == nullptr || codes == nullptr || range == nullptr) {
    return Status::InvalidArgument("bad arguments");
  }
  const int levels = (1 << bits) - 1;  // 2^B - 1 segments
  float lo = vec[0];
  float hi = vec[0];
  std::size_t i = 1;
#if defined(__AVX2__)
  if (dim >= 8) {
    __m256 lo_v = _mm256_loadu_ps(vec);
    __m256 hi_v = lo_v;
    for (i = 8; i + 8 <= dim; i += 8) {
      const __m256 v = _mm256_loadu_ps(vec + i);
      lo_v = _mm256_min_ps(lo_v, v);
      hi_v = _mm256_max_ps(hi_v, v);
    }
    alignas(32) float lanes_lo[8];
    alignas(32) float lanes_hi[8];
    _mm256_store_ps(lanes_lo, lo_v);
    _mm256_store_ps(lanes_hi, hi_v);
    lo = *std::min_element(lanes_lo, lanes_lo + 8);
    hi = *std::max_element(lanes_hi, lanes_hi + 8);
  }
#endif
  for (; i < dim; ++i) {
    lo = std::min(lo, vec[i]);
    hi = std::max(hi, vec[i]);
  }
  range->lo = lo;
  range->step = (hi - lo) / static_cast<float>(levels);
  range->sum = 0;
  if (range->step <= 0.0f) {
    // Constant vector: every value quantizes to level 0 exactly.
    range->step = 0.0f;
    std::fill_n(codes, dim, std::uint8_t{0});
    return Status::Ok();
  }
  i = 0;
#if defined(__AVX2__)
  i = dim / 8 * 8;
  range->sum = RoundLevelsAvx2(vec, i, lo, range->step, levels, key, codes);
#endif
  for (; i < dim; ++i) {
    const std::uint32_t level = RoundLevel(vec[i], lo, range->step, levels, key,
                                           static_cast<std::uint32_t>(i));
    codes[i] = static_cast<std::uint8_t>(level);
    range->sum += level;
  }
  return Status::Ok();
}

}  // namespace rabitq
