#include "core/rabitq.h"

#include <algorithm>
#include <cmath>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "linalg/vector_ops.h"
#include "util/serialize.h"

namespace rabitq {

namespace {

// Writes `code`'s nibbles into slot `i` of `plane`, the next free one (a
// null `code` writes the all-zero plane), growing the plane by a
// zero-filled block when `i` opens one (the layout PackFastScanCodes
// produces). The slot is overwritten, not ORed into, so whatever a loaded
// snapshot left in the padding lanes cannot leak into a later code.
void WriteSlot(const std::uint64_t* code, std::size_t i, FastScanCodes* plane) {
  const std::size_t num_segments = plane->num_segments;
  const std::size_t block = i / kFastScanBlockSize;
  const std::size_t slot = i % kFastScanBlockSize;
  if (block >= plane->num_blocks) {
    plane->num_blocks = block + 1;
    plane->packed.resize(plane->num_blocks * num_segments * 16, 0);
  }
  plane->num_vectors = i + 1;
  std::uint8_t* block_ptr = plane->packed.data() + block * num_segments * 16;
  const unsigned shift = slot < 16 ? 0 : 4;
  const std::uint8_t keep = slot < 16 ? 0xF0 : 0x0F;
  for (std::size_t t = 0; t < num_segments; ++t) {
    std::uint8_t& byte = block_ptr[t * 16 + (slot & 15)];
    const unsigned nibble = code == nullptr ? 0 : GetNibble(code, t);
    byte = static_cast<std::uint8_t>((byte & keep) | (nibble << shift));
  }
}

// CodeFactors' float fields, in the order of the store's factor arrays.
constexpr float CodeFactors::*kFactorFields[] = {
    &CodeFactors::f_sq,   &CodeFactors::f_cross,    &CodeFactors::f_inv_oo,
    &CodeFactors::f_err,  &CodeFactors::m_code_sum, &CodeFactors::m_alpha,
    &CodeFactors::m_beta, &CodeFactors::m_inv_oo,   &CodeFactors::m_err};

// Bytes of one packed plane holding `n` codes of `code_length` bits.
std::size_t PlaneBytes(std::size_t n, std::size_t code_length) {
  return (n + kFastScanBlockSize - 1) / kFastScanBlockSize * code_length / 4 *
         16;
}

}  // namespace

CodeFactors DeriveFactors(const CodePrimaries& p, Metric metric,
                          std::size_t total_bits) {
  // All of the estimator's per-code trigonometry (square, reciprocal,
  // Eq. 16 sqrt) paid once here instead of once per (query, code) pair in
  // the scan, under the index's metric (see rabitq.h for the two algebras).
  // The clamps keep a degenerate o_o finite.
  CodeFactors f;
  f.bit_count = p.bit_count;
  const float d_sq = p.dist_to_centroid * p.dist_to_centroid;
  if (metric == Metric::kL2) {
    f.f_sq = d_sq;
    f.f_cross = 2.0f * p.dist_to_centroid;
  } else {
    f.f_sq = 0.5f * (d_sq - p.norm_sq);
    f.f_cross = p.dist_to_centroid;
  }
  const float o_c = std::max(p.o_o, 1e-9f);
  f.f_inv_oo = 1.0f / o_c;
  const float o_sq = std::max(o_c * o_c, 1e-12f);
  f.f_err = std::sqrt((1.0f - o_sq) / o_sq) /
            std::sqrt(static_cast<float>(total_bits - 1));
  // The same derivation against the tighter multi-bit <x-bar, o'>: the
  // bound's query-invariant part shrinks as the grid refines.
  f.m_code_sum = p.m_code_sum;
  f.m_alpha = p.m_alpha;
  f.m_beta = p.m_beta;
  const float mo_c = std::max(p.m_o_o, 1e-9f);
  f.m_inv_oo = 1.0f / mo_c;
  const float mo_sq = std::max(mo_c * mo_c, 1e-12f);
  // At 8 bits <x-bar, o'> sits so close to 1 that rounding could nudge
  // mo_sq past it; clamp the numerator so the half-width stays 0, not NaN.
  f.m_err = std::sqrt(std::max(1.0f - mo_sq, 0.0f) / mo_sq) /
            std::sqrt(static_cast<float>(total_bits - 1));
  return f;
}

void RabitqCodeStore::Reserve(std::size_t n) {
  bit_count_.reserve(n);
  for (std::size_t k = 0; k < num_factor_arrays(); ++k) {
    factor_arrays_[k].reserve(n);
  }
  for (FastScanCodes& plane : planes_) {
    plane.packed.reserve(PlaneBytes(n, code_length_));
  }
}

void RabitqCodeStore::UnpackPlane(std::size_t i, std::size_t p,
                                  std::uint64_t* out) const {
  const FastScanCodes& plane = planes_[p];
  const std::uint8_t* bytes =
      plane.BlockPtr(i / kFastScanBlockSize) + (i % 16);
  const unsigned shift = i % kFastScanBlockSize < 16 ? 0 : 4;
  // Segment t holds bits [4t, 4t + 4): 16 segments per word.
  for (std::size_t w = 0; w < words_per_code_; ++w) {
    std::uint64_t word = 0;
    for (std::size_t k = 0; k < 16; ++k) {
      const std::uint64_t nibble = (bytes[(w * 16 + k) * 16] >> shift) & 0xF;
      word |= nibble << (4 * k);
    }
    out[w] = word;
  }
}

void RabitqCodeStore::UnpackBlockPlane(std::size_t block, std::size_t p,
                                       std::uint64_t* out) const {
  const std::uint8_t* rows = planes_[p].BlockPtr(block);
  const std::size_t words = words_per_code_;
  // Word w of every lane gathers segment rows [16w, 16w + 16): row byte k
  // carries lane k's nibble low and lane k + 16's high, so byte b of lane
  // k's word joins rows 16w + 2b and 16w + 2b + 1.
#if defined(__AVX2__)
  // Per word: build the 8 bytes of all 32 lanes (lanes 0-15 in the low
  // 128-bit half, 16-31 in the high half), then transpose the 8 x 16 byte
  // matrix of each half with three unpack stages.
  const __m256i low_nibbles = _mm256_set1_epi8(0x0F);
  const __m256i high_nibbles = _mm256_set1_epi8(static_cast<char>(0xF0));
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint8_t* word_rows = rows + w * 16 * 16;
    __m256i bytes[8];
    for (int b = 0; b < 8; ++b) {
      const __m128i even = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(word_rows + (2 * b) * 16));
      const __m128i odd = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(word_rows + (2 * b + 1) * 16));
      const __m256i first = _mm256_and_si256(
          _mm256_set_m128i(_mm_srli_epi16(even, 4), even), low_nibbles);
      const __m256i second = _mm256_and_si256(
          _mm256_set_m128i(odd, _mm_slli_epi16(odd, 4)), high_nibbles);
      bytes[b] = _mm256_or_si256(first, second);
    }
    // t[2i + h]: byte pairs (2i, 2i + 1) of lanes 8h .. 8h + 7.
    __m256i t[8];
    for (int i = 0; i < 4; ++i) {
      t[2 * i] = _mm256_unpacklo_epi8(bytes[2 * i], bytes[2 * i + 1]);
      t[2 * i + 1] = _mm256_unpackhi_epi8(bytes[2 * i], bytes[2 * i + 1]);
    }
    for (int h = 0; h < 2; ++h) {
      // Bytes 0-3 and 4-7 of lanes 8h .. 8h + 3, then of 8h + 4 .. 8h + 7.
      const __m256i u0 = _mm256_unpacklo_epi16(t[h], t[2 + h]);
      const __m256i u1 = _mm256_unpackhi_epi16(t[h], t[2 + h]);
      const __m256i u2 = _mm256_unpacklo_epi16(t[4 + h], t[6 + h]);
      const __m256i u3 = _mm256_unpackhi_epi16(t[4 + h], t[6 + h]);
      const __m256i pairs[4] = {
          _mm256_unpacklo_epi32(u0, u2), _mm256_unpackhi_epi32(u0, u2),
          _mm256_unpacklo_epi32(u1, u3), _mm256_unpackhi_epi32(u1, u3)};
      for (int j = 0; j < 4; ++j) {
        // Whole words of lanes k, k + 1 (low half) and k + 16, k + 17.
        const std::size_t k = 8 * h + 2 * j;
        const __m128i lo = _mm256_castsi256_si128(pairs[j]);
        const __m128i hi = _mm256_extracti128_si256(pairs[j], 1);
        _mm_storel_epi64(reinterpret_cast<__m128i*>(out + k * words + w), lo);
        _mm_storeh_pd(reinterpret_cast<double*>(out + (k + 1) * words + w),
                      _mm_castsi128_pd(lo));
        _mm_storel_epi64(
            reinterpret_cast<__m128i*>(out + (k + 16) * words + w), hi);
        _mm_storeh_pd(reinterpret_cast<double*>(out + (k + 17) * words + w),
                      _mm_castsi128_pd(hi));
      }
    }
  }
#else
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t low[16] = {};
    std::uint64_t high[16] = {};
    for (std::size_t r = 0; r < 16; ++r) {
      const std::uint8_t* row = rows + (w * 16 + r) * 16;
      for (std::size_t k = 0; k < 16; ++k) {
        low[k] |= static_cast<std::uint64_t>(row[k] & 0xF) << (4 * r);
        high[k] |= static_cast<std::uint64_t>(row[k] >> 4) << (4 * r);
      }
    }
    for (std::size_t k = 0; k < 16; ++k) {
      out[k * words + w] = low[k];
      out[(k + 16) * words + w] = high[k];
    }
  }
#endif
}

CodeFactors RabitqCodeStore::factors(std::size_t i) const {
  CodeFactors f;
  f.bit_count = bit_count_[i];
  for (std::size_t k = 0; k < num_factor_arrays(); ++k) {
    f.*kFactorFields[k] = factor_arrays_[k][i];
  }
  return f;
}

void RabitqCodeStore::Append(const std::uint64_t* planes,
                             const CodeFactors& factors) {
  const std::size_t i = size();
  for (std::size_t p = 0; p < bits_per_dim_; ++p) {
    WriteSlot(planes == nullptr ? nullptr : planes + p * words_per_code_, i,
              &planes_[p]);
  }
  bit_count_.push_back(factors.bit_count);
  for (std::size_t k = 0; k < num_factor_arrays(); ++k) {
    factor_arrays_[k].push_back(factors.*kFactorFields[k]);
  }
}

void RabitqCodeStore::CompactInto(const std::uint8_t* dead,
                                  RabitqCodeStore* out) const {
  out->Init(code_length_, metric_, bits_per_dim_);
  const std::size_t n = size();
  std::size_t live = 0;
  for (std::size_t i = 0; i < n; ++i) live += dead[i] == 0;
  out->Reserve(live);
  std::vector<std::uint64_t> planes(bits_per_dim_ * words_per_code_);
  for (std::size_t i = 0; i < n; ++i) {
    if (dead[i]) continue;
    for (std::size_t p = 0; p < bits_per_dim_; ++p) {
      UnpackPlane(i, p, planes.data() + p * words_per_code_);
    }
    out->Append(planes.data(), factors(i));
  }
}

Status RabitqCodeStore::Save(BinaryWriter* writer) const {
  const std::size_t n = size();
  RABITQ_RETURN_IF_ERROR(writer->WriteU64(n));
  for (const FastScanCodes& plane : planes_) {
    RABITQ_RETURN_IF_ERROR(
        writer->WriteBytes(plane.packed.data(), PlaneBytes(n, code_length_)));
  }
  RABITQ_RETURN_IF_ERROR(writer->WriteBytes(bit_count_.data(), n * 4));
  for (std::size_t k = 0; k < num_factor_arrays(); ++k) {
    RABITQ_RETURN_IF_ERROR(
        writer->WriteBytes(factor_arrays_[k].data(), n * 4));
  }
  return Status::Ok();
}

Status RabitqCodeStore::Load(BinaryReader* reader,
                             std::size_t expected_codes) {
  std::uint64_t n = 0;
  RABITQ_RETURN_IF_ERROR(reader->ReadU64(&n));
  if (n != expected_codes) {
    return Status::IoError("list id/code count mismatch");
  }
  const std::size_t plane_bytes = PlaneBytes(n, code_length_);
  if (bits_per_dim_ * plane_bytes + (1 + num_factor_arrays()) * n * 4 >
      reader->BytesRemaining()) {
    return Status::IoError("code store exceeds file size");
  }
  Clear();
  for (FastScanCodes& plane : planes_) {
    plane.num_vectors = n;
    plane.num_blocks = (n + kFastScanBlockSize - 1) / kFastScanBlockSize;
    plane.packed.resize(plane_bytes);
    RABITQ_RETURN_IF_ERROR(reader->ReadBytes(plane.packed.data(), plane_bytes));
  }
  bit_count_.resize(n);
  RABITQ_RETURN_IF_ERROR(reader->ReadBytes(bit_count_.data(), n * 4));
  for (std::size_t k = 0; k < num_factor_arrays(); ++k) {
    factor_arrays_[k].resize(n);
    RABITQ_RETURN_IF_ERROR(reader->ReadBytes(factor_arrays_[k].data(), n * 4));
  }
  return Status::Ok();
}

Status RabitqCodeStore::LoadLegacy(BinaryReader* reader,
                                   std::size_t expected_codes,
                                   bool has_norm_sq) {
  std::uint64_t n = 0;
  RABITQ_RETURN_IF_ERROR(reader->ReadU64(&n));
  if (n != expected_codes) {
    return Status::IoError("list id/code count mismatch");
  }
  Clear();
  Reserve(n);
  const std::size_t words = words_per_code_;
  // The records keep the sign plane first, then the low planes
  // plane-major; Append wants them by bit weight, the sign plane last.
  std::vector<std::uint64_t> planes(bits_per_dim_ * words);
  std::uint64_t* sign_plane = planes.data() + (bits_per_dim_ - 1) * words;
  for (std::uint64_t i = 0; i < n; ++i) {
    CodePrimaries p;
    RABITQ_RETURN_IF_ERROR(
        reader->ReadBytes(sign_plane, words * sizeof(std::uint64_t)));
    RABITQ_RETURN_IF_ERROR(reader->ReadF32(&p.dist_to_centroid));
    RABITQ_RETURN_IF_ERROR(reader->ReadF32(&p.o_o));
    RABITQ_RETURN_IF_ERROR(reader->ReadU32(&p.bit_count));
    if (has_norm_sq) RABITQ_RETURN_IF_ERROR(reader->ReadF32(&p.norm_sq));
    if (bits_per_dim_ > 1) {
      RABITQ_RETURN_IF_ERROR(reader->ReadBytes(
          planes.data(), (bits_per_dim_ - 1) * words * sizeof(std::uint64_t)));
      RABITQ_RETURN_IF_ERROR(reader->ReadF32(&p.m_o_o));
      RABITQ_RETURN_IF_ERROR(reader->ReadF32(&p.m_alpha));
      RABITQ_RETURN_IF_ERROR(reader->ReadF32(&p.m_beta));
      RABITQ_RETURN_IF_ERROR(reader->ReadF32(&p.m_code_sum));
    }
    Append(planes.data(), DeriveFactors(p, metric_, code_length_));
  }
  return Status::Ok();
}

Status RabitqEncoder::Init(std::size_t dim, const RabitqConfig& config) {
  if (dim == 0) return Status::InvalidArgument("dim must be positive");
  if (config.query_bits < 1 || config.query_bits > 8) {
    return Status::InvalidArgument("query_bits must be in [1, 8]");
  }
  if (config.epsilon0 < 0.0f) {
    return Status::InvalidArgument("epsilon0 must be non-negative");
  }
  if (config.bits_per_dim != 1 && config.bits_per_dim != 2 &&
      config.bits_per_dim != 4 && config.bits_per_dim != 8) {
    return Status::InvalidArgument("bits_per_dim must be 1, 2, 4 or 8");
  }
  config_ = config;
  dim_ = dim;
  std::size_t padded =
      config.total_bits == 0 ? DefaultPaddedDim(dim) : config.total_bits;
  if (padded < dim) {
    return Status::InvalidArgument("total_bits must be >= dim");
  }
  if (padded % 64 != 0) {
    return Status::InvalidArgument("total_bits must be a multiple of 64");
  }
  RABITQ_RETURN_IF_ERROR(
      CreateRotator(dim, padded, config.rotator, config.seed, &rotator_));
  code_length_ = rotator_->padded_dim();  // kFht may round up to a power of 2
  return Status::Ok();
}

void RabitqEncoder::Encode(const float* vec, const float* centroid,
                          EncodedCode* out) const {
  const std::size_t b = code_length_;
  const std::size_t words = WordsForBits(b);
  const std::size_t bpd = config_.bits_per_dim;
  out->planes.assign(bpd * words, 0);
  CodePrimaries& primaries = out->primaries;
  primaries = CodePrimaries{};
  // ||o_r||^2 enters the factors only under IP/cosine.
  primaries.norm_sq = SquaredNorm(vec, dim_);

  // Residual o_r - c and its norm.
  std::vector<float> residual(dim_);
  if (centroid != nullptr) {
    Subtract(vec, centroid, residual.data(), dim_);
  } else {
    std::copy_n(vec, dim_, residual.data());
  }
  const float dist = Norm(residual.data(), dim_);
  // Residual-free vector: the estimator blends to the exact value on
  // f_cross == 0 (kL2) or zeroes the cross term (IP/cosine), so the code
  // content is irrelevant; the CodePrimaries defaults (o_o = 1, all-zero
  // planes, m_alpha = m_beta = 0) keep every factor finite and make the
  // multi-bit refine assemble the same values.
  if (dist == 0.0f) return;
  primaries.dist_to_centroid = dist;
  ScaleInPlace(residual.data(), 1.0f / dist, dim_);

  // o' = P^T o; sign bits form x_b (Section 3.1.3), and
  // <o-bar, o> = <x-bar, o'> = ||o'||_1 / sqrt(B) (Appendix B, Eq. 30).
  std::vector<float> rotated(b);
  rotator_->InverseRotate(residual.data(), rotated.data());
  std::uint64_t* sign_plane = out->planes.data() + (bpd - 1) * words;
  std::uint32_t ones = 0;
  float l1 = 0.0f;
  for (std::size_t i = 0; i < b; ++i) {
    l1 += std::fabs(rotated[i]);
    if (rotated[i] >= 0.0f) {
      SetBit(sign_plane, i);
      ++ones;
    }
  }
  primaries.o_o = l1 / std::sqrt(static_cast<float>(b));
  primaries.bit_count = ones;
  if (bpd == 1) return;

  // Multi-bit grid (see rabitq.h): symmetric uniform over [-m, m], split at
  // zero so u's MSB is forced to the sign bit computed above -- the branch
  // below quantizes each half-range separately, which both guarantees the
  // plane identity under float rounding and equals the ideal
  // floor((o' + m) / delta) grid away from the sign boundary.
  float m = 0.0f;
  for (std::size_t i = 0; i < b; ++i) m = std::max(m, std::fabs(rotated[i]));
  const std::uint32_t levels = 1u << bpd;
  const std::uint32_t half = levels >> 1;
  const float delta = 2.0f * m / static_cast<float>(levels);
  const float lo = -m;
  double rec_norm_sq = 0.0;
  double rec_dot = 0.0;
  std::uint32_t code_sum = 0;
  for (std::size_t i = 0; i < b; ++i) {
    std::uint32_t q;
    if (rotated[i] >= 0.0f) {
      const float t = std::floor(rotated[i] / delta);
      q = half + std::min(static_cast<std::uint32_t>(std::max(t, 0.0f)),
                          half - 1);
    } else {
      const float t = std::floor((rotated[i] + m) / delta);
      q = std::min(static_cast<std::uint32_t>(std::max(t, 0.0f)), half - 1);
    }
    // The low planes of u; its MSB is the sign plane set above.
    for (std::size_t j = 0; j + 1 < bpd; ++j) {
      if ((q >> j) & 1u) SetBit(out->planes.data() + j * words, i);
    }
    code_sum += q;
    const double rec = static_cast<double>(lo) +
                       (static_cast<double>(q) + 0.5) *
                           static_cast<double>(delta);
    rec_norm_sq += rec * rec;
    rec_dot += rec * static_cast<double>(rotated[i]);
  }
  const float rec_norm =
      std::sqrt(std::max(static_cast<float>(rec_norm_sq), 1e-30f));
  primaries.m_alpha = delta / rec_norm;
  primaries.m_beta = (lo + 0.5f * delta) / rec_norm;
  primaries.m_o_o = static_cast<float>(rec_dot) / rec_norm;
  primaries.m_code_sum = static_cast<float>(code_sum);
}

Status RabitqEncoder::EncodeAppend(const float* vec, const float* centroid,
                                   RabitqCodeStore* store) const {
  if (store == nullptr) return Status::InvalidArgument("null store");
  if (store->total_bits() != code_length_) {
    return Status::FailedPrecondition("store bit width mismatch");
  }
  if (store->bits_per_dim() != config_.bits_per_dim) {
    return Status::FailedPrecondition("store bits_per_dim mismatch");
  }
  EncodedCode code;
  Encode(vec, centroid, &code);
  store->Append(code.planes.data(),
                DeriveFactors(code.primaries, store->metric(), code_length_));
  return Status::Ok();
}

void RabitqEncoder::ReconstructQuantizedUnit(const std::uint64_t* bits,
                                             float* out) const {
  const std::size_t b = code_length_;
  const float scale = 1.0f / std::sqrt(static_cast<float>(b));
  std::vector<float> x_bar(b);
  for (std::size_t i = 0; i < b; ++i) {
    x_bar[i] = GetBit(bits, i) ? scale : -scale;
  }
  rotator_->Rotate(x_bar.data(), out);
}

}  // namespace rabitq
