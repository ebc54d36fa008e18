// Uniform scalar quantization. Two flavors:
//  * SQ8: classic per-dimension 8-bit quantizer (related-work baseline and a
//    building block for PQ's LUT compression).
//  * RandomizedUniform: the unbiased randomized rounding of paper Eq. (18),
//    used by the RaBitQ query quantization (Section 3.3.1) and analyzed by
//    Theorem 3.3. Rounding v = vl + m*delta + t goes up with probability
//    t/delta, down otherwise, so E[round(v)] = v.
//
// The rounding dithers u_i come from a counter-keyed stream: u_i is a pure
// function of (key, i), a 32-bit avalanche hash of the two whose top 24 bits
// give a uniform float in [0, 1). One 64-bit key per quantized vector
// replaces one serial generator draw per dimension, so the rounding loop
// vectorizes; the query phase draws one key per (query seed, probed list)
// (core/query.h). Theorem 3.3 needs only that the dithers be uniform and
// independent; scalar_quantizer_test checks both (a chi-square over 16 bins
// and lag-1 correlation across dimensions and across adjacent keys).

#ifndef RABITQ_QUANT_SCALAR_QUANTIZER_H_
#define RABITQ_QUANT_SCALAR_QUANTIZER_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "util/status.h"

namespace rabitq {

/// Per-dimension 8-bit min/max scalar quantizer.
class ScalarQuantizer8 {
 public:
  /// Learns per-dimension [min, max] ranges from training data.
  Status Train(const Matrix& data);

  std::size_t dim() const { return lo_.size(); }

  /// Encodes one vector into dim() bytes (values clamped into range).
  void Encode(const float* vec, std::uint8_t* code) const;

  /// Decodes a code back to floats (segment midpoint reconstruction).
  void Decode(const std::uint8_t* code, float* out) const;

  /// Estimated squared distance between a raw query and an encoded vector.
  float EstimateSquaredDistance(const float* query,
                                const std::uint8_t* code) const;

 private:
  std::vector<float> lo_;
  std::vector<float> step_;  // (hi - lo) / 255, 0 for constant dims
};

/// lowbias32, a 32-bit avalanche finalizer (two xorshift-multiply rounds).
inline std::uint32_t Avalanche32(std::uint32_t x) {
  x ^= x >> 16;
  x *= 0x7FEB352Du;
  x ^= x >> 15;
  x *= 0x846CA68Bu;
  return x ^ (x >> 16);
}

/// The 32-bit stream offset of a 64-bit dither key: its low half xored
/// with the hashed high half, so keys differing in either half start
/// unrelated streams.
inline std::uint32_t DitherOffset(std::uint64_t key) {
  return static_cast<std::uint32_t>(key) ^
         Avalanche32(static_cast<std::uint32_t>(key >> 32));
}

/// Golden-ratio Weyl step between consecutive dimensions' counters.
inline constexpr std::uint32_t kDitherWeyl = 0x9E3779B9u;

/// The hash behind the dither stream: dimension i's counter, spread by the
/// Weyl step from the key's offset, through Avalanche32.
inline std::uint32_t DitherBits(std::uint64_t key, std::uint32_t i) {
  return Avalanche32(DitherOffset(key) + i * kDitherWeyl);
}

/// Dither u_i in [0, 1) of dimension `i` under `key`: the hash's top 24
/// bits, so the float is exact.
inline float DitherUniform(std::uint64_t key, std::uint32_t i) {
  return static_cast<float>(DitherBits(key, i) >> 8) * 0x1.0p-24f;
}

/// Range and level sum of one randomized quantization.
struct RandomizedQuantizeRange {
  float lo = 0.0f;        // v_l
  float step = 0.0f;      // Delta; 0 for a constant vector
  std::uint32_t sum = 0;  // sum_i codes[i]
};

/// Quantizes `vec` into `bits`-bit unsigned integers with unbiased randomized
/// rounding (paper Eq. 18), writing one level per dimension to `codes`:
///   codes[i] = floor((vec[i] - lo) / step + DitherUniform(key, i)),
/// clamped to [0, 2^bits - 1]. `bits` must be in [1, 8]. Allocates nothing;
/// the AVX2 path and the scalar fallback round identically (same division,
/// same dithers).
Status RandomizedUniformQuantize(const float* vec, std::size_t dim, int bits,
                                 std::uint64_t key, std::uint8_t* codes,
                                 RandomizedQuantizeRange* range);

}  // namespace rabitq

#endif  // RABITQ_QUANT_SCALAR_QUANTIZER_H_
