// RaBitQ index-phase machinery (paper Section 3.1 and Algorithm 1):
// normalize data vectors against a centroid, inverse-rotate by the sampled
// orthogonal P, and store the sign bit string x_b together with the
// per-vector factors the estimator needs:
//   dist_to_centroid = ||o_r - c||        (Eq. 2)
//   o_o              = <o-bar, o> = ||P^T o||_1 / sqrt(B)   (Eq. 30)
//   bit_count        = popcount(x_b)      (Eq. 20)
// plus derived factors precomputed once per code so the query-phase assembly
// of Eq. 20 + the Thm 3.2 error bound is a pure fused-multiply-add kernel
// (no sqrt, no divide, no AoS view in the hot loop -- Andre et al.'s
// fast-scan discipline of hoisting everything query-invariant out of the
// scan, applied to the float assembly as well as the LUT accumulation).
// The factors are METRIC-AWARE: the store bakes the index's metric into
// them at append time so the query-phase kernel is one fma regardless of
// metric (the score it assembles is L2 squared distance under kL2, negated
// inner product under kInnerProduct/kCosine):
//   kL2:     f_sq    = dist_to_centroid^2
//            f_cross = 2 * dist_to_centroid
//   kIP/cos: f_sq    = (dist_to_centroid^2 - ||o_r||^2) / 2
//            f_cross = dist_to_centroid
//            (from -<o,q> = g + h - d_o d_q <u,v> with
//             g = (d_o^2 - ||o_r||^2)/2 per code and
//             h = (d_q^2 - ||q_r||^2)/2 per query, the latter living in
//             QuantizedQuery::q_base)
//   always:  f_inv_oo = 1 / max(o_o, 1e-9)
//            f_err    = sqrt((1 - o_o^2) / max(o_o^2, 1e-12)) / sqrt(B - 1)
//            (the query-invariant part of Eq. 16; the estimator multiplies
//             by eps0 at query time. Under IP/cosine the halved f_cross
//             automatically halves the error term too, which is exactly the
//             IP-analogue half-width: err(-<o,q>) = d_o d_q err(<u,v>).)
// Codes live in an SoA store: the factors in parallel arrays, the bits in
// Andre et al.'s packed 4-bit fast-scan blocks (Section 3.3.2), which are
// the only resident copy of a code's bits. Append writes a new code's
// nibbles straight into the tail block; the rare readers that want a bit
// string (the bitwise Eq. 22 path, compaction, snapshots) unpack one plane
// of one code with UnpackPlane.
//
// MULTI-BIT CODES (bits_per_dim B_d in {1, 2, 4, 8}): each rotated residual
// entry o'_i is quantized onto a symmetric uniform grid of 2^B_d levels over
// [-m, m] with m = max_i |o'_i|:
//   delta = 2m / 2^B_d,  u_i in [0, 2^B_d),  rec_i = -m + (u_i + 0.5) delta
//   x-bar = rec / ||rec||  =>  x-bar_i = m_alpha * u_i + m_beta  with
//   m_alpha = delta / ||rec||,  m_beta = (-m + 0.5 delta) / ||rec||
// The grid is sign-split so the MSB plane of u IS the 1-bit sign code:
// u_i >= 2^(B_d - 1) iff o'_i >= 0. The store keeps one packed plane per bit
// of u, indexed by bit weight: plane B_d - 1 is the sign plane (packed(),
// read by the 1-bit estimates and the stage-1 scan, unchanged for any B_d)
// and planes 0 .. B_d - 2 are the low planes (extra_packed(j)), each
// scanned by the same LUT accumulator in the stage-2 refine. Per-code
// multi factors:
//   m_o_o      = <x-bar, o'>      (replaces ||o'||_1 / sqrt(B) of the 1-bit
//                                  code -- tighter, so the Eq. 16 bound
//                                  shrinks with B_d)
//   m_code_sum = sum_i u_i        (pairs with the query's v_l term)
// plus derived m_inv_oo / m_err computed in Append exactly like the 1-bit
// f_inv_oo / f_err. B_d = 1 stores nothing extra and degenerates bit-for-bit
// to the historical code path.

#ifndef RABITQ_CORE_RABITQ_H_
#define RABITQ_CORE_RABITQ_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/metric.h"
#include "core/rotator.h"
#include "linalg/matrix.h"
#include "quant/fastscan.h"
#include "util/aligned_buffer.h"
#include "util/bit_ops.h"
#include "util/status.h"

namespace rabitq {

struct RabitqConfig {
  /// Quantization-code length B in bits; 0 selects the paper default, the
  /// smallest multiple of 64 >= D. Values > D implement the zero-padding
  /// accuracy knob of Section 5.1.
  std::size_t total_bits = 0;
  /// Confidence parameter of the error bound (Eq. 14); 1.9 gives the
  /// near-perfect confidence used throughout the paper (Section 5.2.4).
  float epsilon0 = 1.9f;
  /// Bits per entry of the quantized query (B_q, Section 3.3.1); 4 makes the
  /// scalar-quantization error negligible (Theorem 3.3, Section 5.2.5).
  int query_bits = 4;
  /// Bits per (padded) dimension of the stored code: 1, 2, 4 or 8. 1 is the
  /// paper's sign code; higher widths add low bit planes on the sign-split
  /// uniform grid (see the header comment) and enable the two-stage
  /// error-bound scan: the 1-bit plane prunes, the full-width code refines.
  std::size_t bits_per_dim = 1;
  RotatorKind rotator = RotatorKind::kDense;
  std::uint64_t seed = 0x5A17B1D5EEDULL;
};

/// Structure-of-arrays storage for RaBitQ codes: factor arrays plus one
/// packed fast-scan plane per code bit (see the header comment). Every
/// Append leaves the packed planes current, so any non-empty store can be
/// scanned.
class RabitqCodeStore {
 public:
  RabitqCodeStore() = default;
  explicit RabitqCodeStore(std::size_t total_bits) { Init(total_bits); }

  /// `metric` selects the factor algebra baked in by Append (see the header
  /// comment); it must match the owning index's metric. `bits_per_dim`
  /// must match the encoder feeding this store (1, 2, 4 or 8).
  void Init(std::size_t total_bits, Metric metric = Metric::kL2,
            std::size_t bits_per_dim = 1) {
    code_length_ = total_bits;
    words_per_code_ = WordsForBits(total_bits);
    metric_ = metric;
    bits_per_dim_ = bits_per_dim;
    Clear();
  }

  void Clear() {
    dist_to_centroid_.clear();
    o_o_.clear();
    bit_count_.clear();
    norm_sq_.clear();
    f_sq_.clear();
    f_cross_.clear();
    f_inv_oo_.clear();
    f_err_.clear();
    m_o_o_.clear();
    m_code_sum_.clear();
    m_alpha_.clear();
    m_beta_.clear();
    m_inv_oo_.clear();
    m_err_.clear();
    planes_.assign(bits_per_dim_, FastScanCodes{});
    for (FastScanCodes& plane : planes_) plane.num_segments = code_length_ / 4;
  }

  void Reserve(std::size_t n);

  std::size_t size() const { return dist_to_centroid_.size(); }
  std::size_t total_bits() const { return code_length_; }
  std::size_t words_per_code() const { return words_per_code_; }
  Metric metric() const { return metric_; }
  std::size_t bits_per_dim() const { return bits_per_dim_; }
  /// Words of extra (low) bit planes per code: (bits_per_dim - 1) planes of
  /// words_per_code() words each, plane-major (plane j at offset j * words).
  std::size_t extra_words_per_code() const {
    return bits_per_dim_ > 1 ? (bits_per_dim_ - 1) * words_per_code_ : 0;
  }

  /// Unpacks bit plane `p` of code `i` into words_per_code() words at `out`.
  /// `p` is the bit weight in u: p = bits_per_dim() - 1 is the sign plane
  /// (the 1-bit code x_b), p < bits_per_dim() - 1 the low planes.
  void UnpackPlane(std::size_t i, std::size_t p, std::uint64_t* out) const;

  float dist_to_centroid(std::size_t i) const { return dist_to_centroid_[i]; }
  float o_o(std::size_t i) const { return o_o_[i]; }
  std::uint32_t bit_count(std::size_t i) const { return bit_count_[i]; }
  float norm_sq(std::size_t i) const { return norm_sq_[i]; }

  // SoA factor arrays for the fused batch estimator; parallel to the code
  // order, always size() entries (appended in lock-step by Append).
  const float* dist_to_centroid_data() const { return dist_to_centroid_.data(); }
  const std::uint32_t* bit_count_data() const { return bit_count_.data(); }
  const float* f_sq_data() const { return f_sq_.data(); }
  const float* f_cross_data() const { return f_cross_.data(); }
  const float* f_inv_oo_data() const { return f_inv_oo_.data(); }
  const float* f_err_data() const { return f_err_.data(); }

  // Multi-bit accessors; only meaningful when bits_per_dim() > 1 (the
  // arrays stay empty otherwise).
  float m_o_o(std::size_t i) const { return m_o_o_[i]; }
  float m_alpha(std::size_t i) const { return m_alpha_[i]; }
  float m_beta(std::size_t i) const { return m_beta_[i]; }
  float m_code_sum(std::size_t i) const { return m_code_sum_[i]; }
  const float* m_alpha_data() const { return m_alpha_.data(); }
  const float* m_beta_data() const { return m_beta_.data(); }
  const float* m_code_sum_data() const { return m_code_sum_.data(); }
  const float* m_inv_oo_data() const { return m_inv_oo_.data(); }
  const float* m_err_data() const { return m_err_.data(); }
  /// Packed fast-scan layout of low plane j (0 <= j < bits_per_dim - 1).
  const FastScanCodes& extra_packed(std::size_t j) const {
    return planes_[j];
  }

  /// Appends a code; `bits` must hold words_per_code() words. Its nibbles
  /// go straight into the tail slot of each packed plane, O(B/4) per plane,
  /// which keeps single-vector index appends amortized O(1). The derived
  /// estimator factors are computed here under the store's metric -- every
  /// code-creation path (encode, single-vector append, compaction, snapshot
  /// load) funnels through this method, so factors can never go stale and
  /// snapshots never store them (Load recomputes them for free, every
  /// format version alike). `norm_sq` = ||o_r||^2 of the original vector;
  /// it is stored (and persisted by snapshot v3+) regardless of metric so a
  /// metric switch never needs re-encoding, but only enters the factors
  /// under kInnerProduct / kCosine.
  ///
  /// When bits_per_dim() > 1 the multi-bit payload rides along:
  /// `extra_planes` holds extra_words_per_code() words (nullptr appends
  /// all-zero planes, the zero-residual case), and (m_o_o, m_alpha, m_beta,
  /// m_code_sum) are the primary multi factors -- they depend on the rotated
  /// residual, which is never stored, so unlike the derived factors they ARE
  /// persisted (snapshot v4). m_inv_oo / m_err are derived from them here.
  void Append(const std::uint64_t* bits, float dist_to_centroid, float o_o,
              std::uint32_t bit_count, float norm_sq = 0.0f,
              const std::uint64_t* extra_planes = nullptr, float m_o_o = 1.0f,
              float m_alpha = 0.0f, float m_beta = 0.0f,
              float m_code_sum = 0.0f);

  /// Appends the codes whose `dead` flag is 0 into `*out` (Init'ed to the
  /// same width by this call) -- the code-store half of an IVF list
  /// compaction. `dead` must hold size() entries.
  void CompactInto(const std::uint8_t* dead, RabitqCodeStore* out) const;

  /// Invariant: the packed planes always cover every appended code, so a
  /// store is scannable exactly when it is non-empty.
  bool finalized() const { return size() > 0; }
  /// Packed fast-scan layout of the sign plane.
  const FastScanCodes& packed() const { return planes_.back(); }

 private:
  std::size_t code_length_ = 0;
  std::size_t words_per_code_ = 0;
  Metric metric_ = Metric::kL2;
  std::size_t bits_per_dim_ = 1;
  std::vector<float> dist_to_centroid_;
  std::vector<float> o_o_;
  std::vector<std::uint32_t> bit_count_;
  std::vector<float> norm_sq_;
  // Derived factor SoA arrays (see header comment); aligned so the fused
  // kernel's block-granular loads stay on cache-line boundaries.
  AlignedVector<float> f_sq_;
  AlignedVector<float> f_cross_;
  AlignedVector<float> f_inv_oo_;
  AlignedVector<float> f_err_;
  // Multi-bit factors (empty at bits_per_dim_ == 1): primary (persisted)
  // and derived (recomputed in Append).
  std::vector<float> m_o_o_;
  AlignedVector<float> m_code_sum_;
  AlignedVector<float> m_alpha_;
  AlignedVector<float> m_beta_;
  AlignedVector<float> m_inv_oo_;
  AlignedVector<float> m_err_;
  // One packed plane per code bit, indexed by bit weight (the sign plane
  // last); Init sizes it to bits_per_dim_.
  std::vector<FastScanCodes> planes_ = std::vector<FastScanCodes>(1);
};

/// Stateless-per-vector encoder; owns the rotator (the conceptual codebook:
/// the paper stores only P, never the 2^B codebook vectors).
class RabitqEncoder {
 public:
  /// Prepares the encoder for vectors of dimensionality `dim`.
  Status Init(std::size_t dim, const RabitqConfig& config);

  std::size_t dim() const { return dim_; }
  std::size_t total_bits() const { return code_length_; }
  const RabitqConfig& config() const { return config_; }
  const Rotator& rotator() const { return *rotator_; }

  /// Quantizes `vec` relative to `centroid` (nullptr = origin) and appends
  /// the code to `store` (which must be Init'ed with total_bits()).
  Status EncodeAppend(const float* vec, const float* centroid,
                      RabitqCodeStore* store) const;

  /// Reconstructs the quantized unit vector o-bar = P x-bar of a code
  /// (B floats). Used by tests and the concentration study.
  void ReconstructQuantizedUnit(const std::uint64_t* bits, float* out) const;

 private:
  RabitqConfig config_;
  std::size_t dim_ = 0;
  std::size_t code_length_ = 0;
  std::unique_ptr<Rotator> rotator_;
};

}  // namespace rabitq

#endif  // RABITQ_CORE_RABITQ_H_
