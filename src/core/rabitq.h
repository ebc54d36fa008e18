// RaBitQ index-phase machinery (paper Section 3.1 and Algorithm 1):
// normalize data vectors against a centroid, inverse-rotate by the sampled
// orthogonal P, and keep the sign bit string x_b plus a few per-code
// scalars. The encoder computes the primaries (CodePrimaries):
//   dist_to_centroid = ||o_r - c||        (Eq. 2)
//   o_o              = <o-bar, o> = ||P^T o||_1 / sqrt(B)   (Eq. 30)
//   bit_count        = popcount(x_b)      (Eq. 20)
//   norm_sq          = ||o_r||^2          (IP/cosine only)
// The store never keeps them: DeriveFactors maps them once per code to the
// resident factors the kernels read, so the assembly of Eq. 20 + the
// Thm 3.2 error bound is a pure fused-multiply-add kernel (no sqrt, no
// divide in the hot loop). The factors are METRIC-AWARE, so the kernel is
// one fma regardless of metric (the score it assembles is L2 squared
// distance under kL2, negated inner product under kInnerProduct/kCosine):
//   kL2:     f_sq    = dist_to_centroid^2
//            f_cross = 2 * dist_to_centroid  (0 iff the residual is)
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
//   plus bit_count itself.
// Codes live in an SoA store: the resident factors in parallel arrays, the
// bits only in Andre et al.'s packed 4-bit fast-scan blocks (Section
// 3.3.2); the rare readers that want a bit string (the bitwise Eq. 22
// path, compaction) unpack one plane of one code with UnpackPlane.
// Snapshots save both as they sit in memory.
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
// scanned by the same LUT accumulator in the stage-2 refine. Multi-bit
// primaries are m_alpha, m_beta, m_code_sum = sum_i u_i (pairs with the
// query's v_l term) and m_o_o = <x-bar, o'> (tighter than the 1-bit
// ||o'||_1 / sqrt(B), so the Eq. 16 bound shrinks with B_d). The first
// three stay resident; m_o_o becomes m_inv_oo / m_err exactly as o_o
// becomes f_inv_oo / f_err. B_d = 1 stores nothing extra.

#ifndef RABITQ_CORE_RABITQ_H_
#define RABITQ_CORE_RABITQ_H_

#include <array>
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

class BinaryReader;
class BinaryWriter;

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

/// The per-code scalars the encoder computes (see the header comment).
/// The defaults are the zero-residual code's: o_o = m_o_o = 1 keeps the
/// derived factors finite, and u = 0 with m_alpha = m_beta = 0 makes the
/// multi-bit refine assemble the same values as the 1-bit lane.
struct CodePrimaries {
  float dist_to_centroid = 0.0f;
  float o_o = 1.0f;
  std::uint32_t bit_count = 0;
  float norm_sq = 0.0f;
  // Multi-bit only (bits_per_dim > 1).
  float m_o_o = 1.0f;
  float m_alpha = 0.0f;
  float m_beta = 0.0f;
  float m_code_sum = 0.0f;
};

/// One code's resident factors: exactly what the estimator kernels read.
/// The m_* fields are stored only when bits_per_dim > 1.
struct CodeFactors {
  std::uint32_t bit_count = 0;
  float f_sq = 0.0f;
  float f_cross = 0.0f;
  float f_inv_oo = 1.0f;
  float f_err = 0.0f;
  float m_code_sum = 0.0f;
  float m_alpha = 0.0f;
  float m_beta = 0.0f;
  float m_inv_oo = 1.0f;
  float m_err = 0.0f;

  friend bool operator==(const CodeFactors&, const CodeFactors&) = default;
};

/// The factor algebra of the header comment: maps a code's primaries to its
/// resident factors under `metric` for a code of `total_bits` = B bits.
/// Pure, and the only place the formulas live, so every path that makes
/// factors (encoding, legacy snapshot loading) agrees bit for bit.
CodeFactors DeriveFactors(const CodePrimaries& primaries, Metric metric,
                          std::size_t total_bits);

/// One encoded vector: its bit planes and its primaries.
struct EncodedCode {
  /// bits_per_dim planes of WordsForBits(B) words each, indexed by bit
  /// weight (plane p at offset p * words), so the sign plane x_b is last.
  std::vector<std::uint64_t> planes;
  CodePrimaries primaries;
};

/// Structure-of-arrays storage for RaBitQ codes: the resident factor arrays
/// plus one packed fast-scan plane per code bit (see the header comment).
/// Every Append leaves the packed planes current, so any non-empty store
/// can be scanned.
class RabitqCodeStore {
 public:
  RabitqCodeStore() = default;
  explicit RabitqCodeStore(std::size_t total_bits) { Init(total_bits); }

  /// `metric` is the algebra the appended factors were derived under (see
  /// DeriveFactors); it must match the owning index's metric. `bits_per_dim`
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
    bit_count_.clear();
    for (AlignedVector<float>& array : factor_arrays_) array.clear();
    planes_.assign(bits_per_dim_, FastScanCodes{});
    for (FastScanCodes& plane : planes_) plane.num_segments = code_length_ / 4;
  }

  void Reserve(std::size_t n);

  std::size_t size() const { return bit_count_.size(); }
  std::size_t total_bits() const { return code_length_; }
  std::size_t words_per_code() const { return words_per_code_; }
  Metric metric() const { return metric_; }
  std::size_t bits_per_dim() const { return bits_per_dim_; }

  /// Unpacks bit plane `p` of code `i` into words_per_code() words at `out`.
  /// `p` is the bit weight in u: p = bits_per_dim() - 1 is the sign plane
  /// (the 1-bit code x_b), p < bits_per_dim() - 1 the low planes.
  void UnpackPlane(std::size_t i, std::size_t p, std::uint64_t* out) const;

  /// Unpacks bit plane `p` of all kFastScanBlockSize lanes of block `block`
  /// in one pass over its 16-byte segment rows: lane k's words land at
  /// out + k * words_per_code(). Lanes past size() on the tail block come
  /// out as whatever the packed padding holds; callers read lanes < size().
  void UnpackBlockPlane(std::size_t block, std::size_t p,
                        std::uint64_t* out) const;

  /// Code `i`'s resident factors, gathered from the SoA arrays.
  CodeFactors factors(std::size_t i) const;

  std::uint32_t bit_count(std::size_t i) const { return bit_count_[i]; }

  // SoA factor arrays for the fused batch estimator; parallel to the code
  // order, always size() entries (appended in lock-step by Append).
  const std::uint32_t* bit_count_data() const { return bit_count_.data(); }
  const float* f_sq_data() const { return factor_arrays_[kFSq].data(); }
  const float* f_cross_data() const { return factor_arrays_[kFCross].data(); }
  const float* f_inv_oo_data() const { return factor_arrays_[kFInvOo].data(); }
  const float* f_err_data() const { return factor_arrays_[kFErr].data(); }

  // Multi-bit arrays; empty unless bits_per_dim() > 1.
  const float* m_code_sum_data() const {
    return factor_arrays_[kMCodeSum].data();
  }
  const float* m_alpha_data() const { return factor_arrays_[kMAlpha].data(); }
  const float* m_beta_data() const { return factor_arrays_[kMBeta].data(); }
  const float* m_inv_oo_data() const { return factor_arrays_[kMInvOo].data(); }
  const float* m_err_data() const { return factor_arrays_[kMErr].data(); }
  /// Packed fast-scan layout of low plane j (0 <= j < bits_per_dim - 1).
  const FastScanCodes& extra_packed(std::size_t j) const {
    return planes_[j];
  }

  /// Appends a code: `planes` holds bits_per_dim() planes laid out as in
  /// EncodedCode (nullptr appends all-zero planes), `factors` its resident
  /// factors. The nibbles go straight into the tail slot of each packed
  /// plane, O(B/4) per plane, which keeps single-vector index appends
  /// amortized O(1).
  void Append(const std::uint64_t* planes, const CodeFactors& factors);

  /// Appends the codes whose `dead` flag is 0 into `*out` (Init'ed to the
  /// same width by this call) -- the code-store half of an IVF list
  /// compaction. `dead` must hold size() entries.
  void CompactInto(const std::uint8_t* dead, RabitqCodeStore* out) const;

  /// Snapshot I/O (format v6). Save writes the code count, then each packed
  /// plane in bit-weight order and each resident factor array, all as they
  /// sit in memory. Load reads that back into an Init'ed store, failing
  /// closed (IoError) unless the count equals `expected_codes` and the
  /// bytes fit in the file.
  Status Save(BinaryWriter* writer) const;
  Status Load(BinaryReader* reader, std::size_t expected_codes);

  /// Reads the per-code records of snapshot formats v1-v5 into an Init'ed
  /// store: a u64 count (must equal `expected_codes`), then per code the
  /// sign plane, dist_to_centroid, o_o, bit_count, norm_sq (v3+ only, per
  /// `has_norm_sq`; 0 before, which kL2 never reads) and, when
  /// bits_per_dim() > 1, the low planes plus m_o_o, m_alpha, m_beta and
  /// m_code_sum. The factors come from DeriveFactors.
  Status LoadLegacy(BinaryReader* reader, std::size_t expected_codes,
                    bool has_norm_sq);

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
  // The float factor arrays, in CodeFactors order; the multi-bit ones (from
  // kMCodeSum on) are used only when bits_per_dim_ > 1.
  enum FactorArray {
    kFSq, kFCross, kFInvOo, kFErr,
    kMCodeSum, kMAlpha, kMBeta, kMInvOo, kMErr, kNumFactorArrays
  };
  std::size_t num_factor_arrays() const {
    return bits_per_dim_ > 1 ? kNumFactorArrays : kMCodeSum;
  }

  // Resident factor SoA arrays (see header comment); aligned so the fused
  // kernel's block-granular loads stay on cache-line boundaries.
  AlignedVector<std::uint32_t> bit_count_;
  std::array<AlignedVector<float>, kNumFactorArrays> factor_arrays_;
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

  /// Quantizes `vec` relative to `centroid` (nullptr = origin) into `*out`:
  /// config().bits_per_dim planes and the primaries.
  void Encode(const float* vec, const float* centroid, EncodedCode* out) const;

  /// Encode, then append the planes and their factors (derived under the
  /// store's metric) to `store`, which must be Init'ed with total_bits() and
  /// config().bits_per_dim.
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
