#include "core/rabitq.h"

#include <algorithm>
#include <cmath>

#include "linalg/vector_ops.h"

namespace rabitq {

namespace {

// Writes `code`'s nibbles into slot `i` of `plane`, the next free one,
// growing the plane by a zero-filled block when `i` opens one (the layout
// PackFastScanCodes produces). A fresh slot is zero, so the writes OR into
// it, and a null `code` (the all-zero plane) writes nothing.
void WriteSlot(const std::uint64_t* code, std::size_t i, FastScanCodes* plane) {
  const std::size_t num_segments = plane->num_segments;
  const std::size_t block = i / kFastScanBlockSize;
  const std::size_t slot = i % kFastScanBlockSize;
  if (block >= plane->num_blocks) {
    plane->num_blocks = block + 1;
    plane->packed.resize(plane->num_blocks * num_segments * 16, 0);
  }
  plane->num_vectors = i + 1;
  if (code == nullptr) return;
  std::uint8_t* block_ptr = plane->packed.data() + block * num_segments * 16;
  const unsigned shift = slot < 16 ? 0 : 4;
  for (std::size_t t = 0; t < num_segments; ++t) {
    block_ptr[t * 16 + (slot & 15)] |=
        static_cast<std::uint8_t>(GetNibble(code, t) << shift);
  }
}

}  // namespace

void RabitqCodeStore::Reserve(std::size_t n) {
  dist_to_centroid_.reserve(n);
  o_o_.reserve(n);
  bit_count_.reserve(n);
  norm_sq_.reserve(n);
  f_sq_.reserve(n);
  f_cross_.reserve(n);
  f_inv_oo_.reserve(n);
  f_err_.reserve(n);
  if (bits_per_dim_ > 1) {
    m_o_o_.reserve(n);
    m_code_sum_.reserve(n);
    m_alpha_.reserve(n);
    m_beta_.reserve(n);
    m_inv_oo_.reserve(n);
    m_err_.reserve(n);
  }
  const std::size_t blocks = (n + kFastScanBlockSize - 1) / kFastScanBlockSize;
  for (FastScanCodes& plane : planes_) {
    plane.packed.reserve(blocks * plane.num_segments * 16);
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

void RabitqCodeStore::Append(const std::uint64_t* bits, float dist_to_centroid,
                             float o_o, std::uint32_t bit_count, float norm_sq,
                             const std::uint64_t* extra_planes, float m_o_o,
                             float m_alpha, float m_beta, float m_code_sum) {
  const std::size_t i = size();
  WriteSlot(bits, i, &planes_.back());
  dist_to_centroid_.push_back(dist_to_centroid);
  o_o_.push_back(o_o);
  bit_count_.push_back(bit_count);
  norm_sq_.push_back(norm_sq);
  // Derived factors: all of the estimator's per-code trigonometry (square,
  // reciprocal, Eq. 16 sqrt) paid once here instead of once per (query,
  // code) pair in the scan, under the store's metric (see rabitq.h for the
  // two algebras). The clamps mirror the estimator's historical guards so a
  // degenerate o_o stays finite.
  const float d_sq = dist_to_centroid * dist_to_centroid;
  if (metric_ == Metric::kL2) {
    f_sq_.push_back(d_sq);
    f_cross_.push_back(2.0f * dist_to_centroid);
  } else {
    f_sq_.push_back(0.5f * (d_sq - norm_sq));
    f_cross_.push_back(dist_to_centroid);
  }
  const float o_c = std::max(o_o, 1e-9f);
  f_inv_oo_.push_back(1.0f / o_c);
  const float o_sq = std::max(o_c * o_c, 1e-12f);
  f_err_.push_back(std::sqrt((1.0f - o_sq) / o_sq) /
                   std::sqrt(static_cast<float>(code_length_ - 1)));
  if (bits_per_dim_ > 1) {
    for (std::size_t j = 0; j + 1 < bits_per_dim_; ++j) {
      WriteSlot(extra_planes == nullptr ? nullptr
                                        : extra_planes + j * words_per_code_,
                i, &planes_[j]);
    }
    m_o_o_.push_back(m_o_o);
    m_alpha_.push_back(m_alpha);
    m_beta_.push_back(m_beta);
    m_code_sum_.push_back(m_code_sum);
    // Same derivation as f_inv_oo / f_err, just against the tighter
    // multi-bit <x-bar, o'>: the bound's query-invariant part shrinks as
    // the grid refines.
    const float mo_c = std::max(m_o_o, 1e-9f);
    m_inv_oo_.push_back(1.0f / mo_c);
    const float mo_sq = std::max(mo_c * mo_c, 1e-12f);
    // At 8 bits <x-bar, o'> sits so close to 1 that rounding could nudge
    // mo_sq past it; clamp the numerator so the half-width stays 0, not NaN.
    m_err_.push_back(std::sqrt(std::max(1.0f - mo_sq, 0.0f) / mo_sq) /
                     std::sqrt(static_cast<float>(code_length_ - 1)));
  }
}

void RabitqCodeStore::CompactInto(const std::uint8_t* dead,
                                  RabitqCodeStore* out) const {
  out->Init(code_length_, metric_, bits_per_dim_);
  const std::size_t n = size();
  std::size_t live = 0;
  for (std::size_t i = 0; i < n; ++i) live += dead[i] == 0;
  out->Reserve(live);
  const bool multi = bits_per_dim_ > 1;
  std::vector<std::uint64_t> bits(words_per_code_);
  std::vector<std::uint64_t> extra(extra_words_per_code());
  for (std::size_t i = 0; i < n; ++i) {
    if (dead[i]) continue;
    UnpackPlane(i, bits_per_dim_ - 1, bits.data());
    // Append recomputes the derived factors from the same (dist, o_o,
    // norm_sq) floats -- a pure function, so the compacted store's factors
    // are bit-identical to the originals (tested).
    if (multi) {
      for (std::size_t j = 0; j + 1 < bits_per_dim_; ++j) {
        UnpackPlane(i, j, extra.data() + j * words_per_code_);
      }
      out->Append(bits.data(), dist_to_centroid_[i], o_o_[i], bit_count_[i],
                  norm_sq_[i], extra.data(), m_o_o_[i], m_alpha_[i],
                  m_beta_[i], m_code_sum_[i]);
    } else {
      out->Append(bits.data(), dist_to_centroid_[i], o_o_[i], bit_count_[i],
                  norm_sq_[i]);
    }
  }
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

Status RabitqEncoder::EncodeAppend(const float* vec, const float* centroid,
                                   RabitqCodeStore* store) const {
  if (store == nullptr) return Status::InvalidArgument("null store");
  if (store->total_bits() != code_length_) {
    return Status::FailedPrecondition("store bit width mismatch");
  }
  if (store->bits_per_dim() != config_.bits_per_dim) {
    return Status::FailedPrecondition("store bits_per_dim mismatch");
  }
  const std::size_t b = code_length_;
  const std::size_t words = WordsForBits(b);

  // ||o_r||^2 always rides along to the store (it only enters the factors
  // under IP/cosine, but storing it unconditionally keeps snapshots
  // metric-switchable without re-encoding).
  const float norm_sq = SquaredNorm(vec, dim_);

  // Residual o_r - c and its norm.
  std::vector<float> residual(dim_);
  if (centroid != nullptr) {
    Subtract(vec, centroid, residual.data(), dim_);
  } else {
    std::copy_n(vec, dim_, residual.data());
  }
  const float dist = Norm(residual.data(), dim_);
  std::vector<std::uint64_t> bits(words, 0);
  const std::size_t bpd = config_.bits_per_dim;
  if (dist == 0.0f) {
    // Residual-free vector: the estimator short-circuits on
    // dist_to_centroid == 0 (kL2) or zeroes the cross term (IP/cosine), so
    // the code content is irrelevant; o_o = 1 keeps downstream arithmetic
    // finite. Under a multi-bit width the all-zero extra planes (u = 0,
    // alpha = beta = 0) make the refine stage assemble the same
    // short-circuit values.
    store->Append(bits.data(), 0.0f, 1.0f, 0, norm_sq);
    return Status::Ok();
  }
  ScaleInPlace(residual.data(), 1.0f / dist, dim_);

  // o' = P^T o; sign bits form x_b (Section 3.1.3), and
  // <o-bar, o> = <x-bar, o'> = ||o'||_1 / sqrt(B) (Appendix B, Eq. 30).
  std::vector<float> rotated(b);
  rotator_->InverseRotate(residual.data(), rotated.data());
  std::uint32_t ones = 0;
  float l1 = 0.0f;
  for (std::size_t i = 0; i < b; ++i) {
    l1 += std::fabs(rotated[i]);
    if (rotated[i] >= 0.0f) {
      SetBit(bits.data(), i);
      ++ones;
    }
  }
  const float o_o = l1 / std::sqrt(static_cast<float>(b));
  if (bpd == 1) {
    store->Append(bits.data(), dist, o_o, ones, norm_sq);
    return Status::Ok();
  }

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
  std::vector<std::uint8_t> u(b);
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
    u[i] = static_cast<std::uint8_t>(q);
    code_sum += q;
    const double rec = static_cast<double>(lo) +
                       (static_cast<double>(q) + 0.5) *
                           static_cast<double>(delta);
    rec_norm_sq += rec * rec;
    rec_dot += rec * static_cast<double>(rotated[i]);
  }
  const float rec_norm =
      std::sqrt(std::max(static_cast<float>(rec_norm_sq), 1e-30f));
  const float m_alpha = delta / rec_norm;
  const float m_beta = (lo + 0.5f * delta) / rec_norm;
  const float m_o_o = static_cast<float>(rec_dot) / rec_norm;

  std::vector<std::uint64_t> extra((bpd - 1) * words, 0);
  for (std::size_t j = 0; j + 1 < bpd; ++j) {
    std::uint64_t* plane = extra.data() + j * words;
    for (std::size_t i = 0; i < b; ++i) {
      if ((u[i] >> j) & 1u) SetBit(plane, i);
    }
  }
  store->Append(bits.data(), dist, o_o, ones, norm_sq, extra.data(), m_o_o,
                m_alpha, m_beta, static_cast<float>(code_sum));
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
