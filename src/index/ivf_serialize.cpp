// Save/Load for IvfRabitqIndex. Snapshot format v5 ("RBQIVF05") stores the
// metric (a u32 immediately after the header, so it is validated before any
// expensive reconstruction), the raw vectors, the coarse centroids, the
// per-list ids, positional tombstones and code-store arrays (including the
// per-code ||o_r||^2 the IP/cosine factors need), and the RabitqConfig --
// including bits_per_dim (a u32 right after the config seed, validated
// up front like the metric). Multi-bit stores additionally persist, per
// code, the B_d - 1 extra bit planes and the primary multi factors
// (m_o_o, m_alpha, m_beta, m_code_sum): unlike the derived estimator
// factors these depend on the rotated residual, which is never stored. The
// rotation is reconstructed deterministically from (dim, bits, kind, seed)
// at load time, mirroring the paper's observation that the codebook never
// needs to be materialized.
// v5 adds durability, not payload: every byte after the 12-byte header is
// covered by a CRC-32 footer, so bit-rot fails closed in Load with a
// checksum IoError instead of reconstructing garbage that happens to pass
// the structural bounds. Save is also crash-safe -- the blob is written to
// `<path>.tmp` and renamed into place only after a clean Close, so a crash
// or injected write fault mid-save leaves the previous snapshot intact.
// Legacy files still load: v4 ("RBQIVF04", same layout minus the footer),
// v3 ("RBQIVF03", written before multi-bit codes -- no bits_per_dim field
// or multi payload, so it loads as bits_per_dim = 1, the only width in
// existence then), v2 ("RBQIVF02", additionally no metric field or
// per-code norms) and v1 ("RBQIVF01", written before the index became
// mutable -- additionally no tombstone sections). v1/v2 default to
// Metric::kL2, which fixes the old hardcoded `metric_ = kL2` that would
// have silently mis-loaded any non-L2 snapshot.
//
// The derived estimator factors (f_sq/f_cross/f_inv_oo/f_err) are NOT part
// of any format: they are a pure function of the stored per-code
// (dist_to_centroid, o_o, norm_sq) floats and the metric, and are recomputed
// by RabitqCodeStore::Append as Load streams the codes in -- every format
// version comes back with factors bit-identical to the ones the original
// index computed at encode time.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "index/ivf.h"
#include "util/failpoint.h"
#include "util/serialize.h"

namespace rabitq {

namespace {
// Readable formats, newest first; Save always writes kMagics[0]. Keeping
// writer and reader on one table means a format bump cannot desynchronize
// them.
constexpr char kMagics[][8] = {{'R', 'B', 'Q', 'I', 'V', 'F', '0', '5'},
                               {'R', 'B', 'Q', 'I', 'V', 'F', '0', '4'},
                               {'R', 'B', 'Q', 'I', 'V', 'F', '0', '3'},
                               {'R', 'B', 'Q', 'I', 'V', 'F', '0', '2'},
                               {'R', 'B', 'Q', 'I', 'V', 'F', '0', '1'}};
constexpr std::uint32_t kVersions[] = {5, 4, 3, 2, 1};
constexpr std::uint32_t kVersionV2 = 2;  // adds tombstones
constexpr std::uint32_t kVersionV3 = 3;  // adds metric + per-code norms
constexpr std::uint32_t kVersionV4 = 4;  // adds bits_per_dim + multi planes
constexpr std::uint32_t kVersionV5 = 5;  // adds the CRC-32 body footer
static_assert(std::size(kMagics) == std::size(kVersions),
              "every readable magic needs its version");
}  // namespace

Status IvfRabitqIndex::Save(const std::string& path) const {
  if (lists_.empty()) return Status::FailedPrecondition("index not built");
  // Crash-safe: the blob lands in `<path>.tmp` and only a fully written,
  // cleanly closed file is renamed over `path` (the same pattern
  // serve_demo's --metrics-out exporter uses). A crash or write fault at
  // any point leaves the previous snapshot untouched.
  const std::string tmp = path + ".tmp";
  const Status body = SaveBody(tmp);
  if (!body.ok()) {
    std::remove(tmp.c_str());
    return body;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename '" + tmp + "' to '" + path + "'");
  }
  return Status::Ok();
}

Status IvfRabitqIndex::SaveBody(const std::string& path) const {
  std::unique_ptr<BinaryWriter> writer;
  RABITQ_RETURN_IF_ERROR(BinaryWriter::Open(path, &writer));
  RABITQ_RETURN_IF_ERROR(WriteHeader(writer.get(), kMagics[0], kVersions[0]));
  // v5: everything after the header feeds the CRC-32 footer.
  writer->EnableChecksum();

  // v3: the metric comes FIRST so Load can validate it before reading (or
  // reconstructing) anything expensive.
  RABITQ_RETURN_IF_ERROR(
      writer->WriteU32(static_cast<std::uint32_t>(metric_)));

  // Quantizer configuration (the rotator is re-derived from this on load).
  const RabitqConfig& config = encoder_.config();
  RABITQ_RETURN_IF_ERROR(writer->WriteU64(dim()));
  RABITQ_RETURN_IF_ERROR(writer->WriteU64(encoder_.total_bits()));
  RABITQ_RETURN_IF_ERROR(writer->WriteF32(config.epsilon0));
  RABITQ_RETURN_IF_ERROR(writer->WriteU32(config.query_bits));
  RABITQ_RETURN_IF_ERROR(
      writer->WriteU32(static_cast<std::uint32_t>(config.rotator)));
  RABITQ_RETURN_IF_ERROR(writer->WriteU64(config.seed));
  // v4: the code width per dimension; gates the per-code multi payload.
  const std::uint32_t bits_per_dim =
      static_cast<std::uint32_t>(config.bits_per_dim);
  RABITQ_RETURN_IF_ERROR(writer->WriteU32(bits_per_dim));

  // Raw vectors (chunk by chunk -- the store is not one contiguous block)
  // and centroids.
  RABITQ_RETURN_IF_ERROR(writer->WriteU64(data_.rows()));
  for (std::size_t r = 0; r < data_.rows();) {
    const std::size_t run =
        std::min(ChunkedVectorStore::kChunkRows - (r % ChunkedVectorStore::kChunkRows),
                 data_.rows() - r);
    RABITQ_RETURN_IF_ERROR(
        writer->WriteBytes(data_.Row(r), run * dim() * sizeof(float)));
    r += run;
  }
  RABITQ_RETURN_IF_ERROR(writer->WriteU64(centroids_.rows()));
  RABITQ_RETURN_IF_ERROR(writer->WriteBytes(
      centroids_.data(), centroids_.size() * sizeof(float)));

  // Total list entries (live + tombstoned): un-compacted updates make the
  // per-list entry count unbounded in n, so Load needs the real total to
  // sanity-check per-list array lengths against.
  std::uint64_t total_entries = 0;
  for (const List& list : lists_) total_entries += list.ids.size();
  RABITQ_RETURN_IF_ERROR(writer->WriteU64(total_entries));

  // Per-list ids, tombstones and code arrays.
  std::vector<std::uint64_t> bits(WordsForBits(encoder_.total_bits()));
  std::vector<std::uint64_t> extra((bits_per_dim - 1) * bits.size());
  for (const List& list : lists_) {
    RABITQ_FAILPOINT("snapshot.write",
                     return Status::IoError("injected snapshot write fault"));
    RABITQ_RETURN_IF_ERROR(
        writer->WriteArray(list.ids.data(), list.ids.size()));
    RABITQ_RETURN_IF_ERROR(
        writer->WriteArray(list.dead.data(), list.dead.size()));
    const RabitqCodeStore& codes = list.codes;
    const std::size_t n = codes.size();
    RABITQ_RETURN_IF_ERROR(writer->WriteU64(n));
    for (std::size_t i = 0; i < n; ++i) {
      // The store keeps bits only in its packed planes; the file keeps the
      // bit strings, sign plane first, then the low planes plane-major.
      codes.UnpackPlane(i, bits_per_dim - 1, bits.data());
      RABITQ_RETURN_IF_ERROR(
          writer->WriteBytes(bits.data(), bits.size() * sizeof(std::uint64_t)));
      RABITQ_RETURN_IF_ERROR(writer->WriteF32(codes.dist_to_centroid(i)));
      RABITQ_RETURN_IF_ERROR(writer->WriteF32(codes.o_o(i)));
      RABITQ_RETURN_IF_ERROR(writer->WriteU32(codes.bit_count(i)));
      // v3: ||o_r||^2, stored (not recomputed at load: Update overwrites the
      // raw row of a stale entry, so the raw vectors cannot reproduce every
      // entry's norm) regardless of metric.
      RABITQ_RETURN_IF_ERROR(writer->WriteF32(codes.norm_sq(i)));
      // v4 multi payload: the low bit planes and the primary multi factors
      // (the rotated residual they derive from is never stored).
      if (bits_per_dim > 1) {
        for (std::size_t j = 0; j + 1 < bits_per_dim; ++j) {
          codes.UnpackPlane(i, j, extra.data() + j * bits.size());
        }
        RABITQ_RETURN_IF_ERROR(writer->WriteBytes(
            extra.data(), extra.size() * sizeof(std::uint64_t)));
        RABITQ_RETURN_IF_ERROR(writer->WriteF32(codes.m_o_o(i)));
        RABITQ_RETURN_IF_ERROR(writer->WriteF32(codes.m_alpha(i)));
        RABITQ_RETURN_IF_ERROR(writer->WriteF32(codes.m_beta(i)));
        RABITQ_RETURN_IF_ERROR(writer->WriteF32(codes.m_code_sum(i)));
      }
    }
  }
  RABITQ_RETURN_IF_ERROR(writer->WriteChecksumFooter());
  return writer->Close();
}

Status IvfRabitqIndex::Load(const std::string& path) {
  std::unique_ptr<BinaryReader> reader;
  RABITQ_RETURN_IF_ERROR(BinaryReader::Open(path, &reader));
  RABITQ_FAILPOINT("snapshot.read",
                   return Status::IoError("injected snapshot read fault"));
  std::size_t format = 0;
  RABITQ_RETURN_IF_ERROR(ExpectHeaderOneOf(reader.get(), kMagics, kVersions,
                                           std::size(kMagics), &format));
  // v5 bodies are checksummed; accumulate from the first post-header byte
  // so the footer check at the end covers everything the loader trusted.
  const bool has_checksum = kVersions[format] >= kVersionV5;
  if (has_checksum) reader->EnableChecksum();
  const bool has_tombstones = kVersions[format] >= kVersionV2;
  const bool has_metric = kVersions[format] >= kVersionV3;
  const bool has_norm_sq = kVersions[format] >= kVersionV3;
  const bool has_bits_per_dim = kVersions[format] >= kVersionV4;

  // v3 stores the metric right after the header; it is range-checked and
  // run through the ValidateMetric funnel BEFORE anything else is read --
  // in particular before encoder_.Init's O(B^3) rotator reconstruction --
  // so a corrupt metric byte fails closed cheaply. v1/v2 predate non-L2
  // metrics, so their metric is kL2 by construction.
  if (has_metric) {
    std::uint32_t metric_raw = 0;
    RABITQ_RETURN_IF_ERROR(reader->ReadU32(&metric_raw));
    if (metric_raw > kMaxMetricValue) {
      return Status::IoError("corrupt metric");
    }
    metric_ = static_cast<Metric>(metric_raw);
  } else {
    metric_ = Metric::kL2;
  }
  RABITQ_RETURN_IF_ERROR(ValidateMetric(metric_));

  std::uint64_t dim = 0, total_bits = 0, seed = 0;
  std::uint32_t query_bits = 0, rotator_kind = 0;
  float epsilon0 = 0.0f;
  RABITQ_RETURN_IF_ERROR(reader->ReadU64(&dim));
  RABITQ_RETURN_IF_ERROR(reader->ReadU64(&total_bits));
  RABITQ_RETURN_IF_ERROR(reader->ReadF32(&epsilon0));
  RABITQ_RETURN_IF_ERROR(reader->ReadU32(&query_bits));
  RABITQ_RETURN_IF_ERROR(reader->ReadU32(&rotator_kind));
  RABITQ_RETURN_IF_ERROR(reader->ReadU64(&seed));
  // v4: per-dimension code width, validated up front (pre-v4 snapshots were
  // all written at the only width that existed, 1).
  std::uint32_t bits_per_dim = 1;
  if (has_bits_per_dim) {
    RABITQ_RETURN_IF_ERROR(reader->ReadU32(&bits_per_dim));
    if (bits_per_dim != 1 && bits_per_dim != 2 && bits_per_dim != 4 &&
        bits_per_dim != 8) {
      return Status::IoError("corrupt bits_per_dim");
    }
  }
  if (dim == 0 || dim > (1u << 20)) return Status::IoError("corrupt dim");
  // Bound the code width BEFORE Init reconstructs the B x B rotator (an
  // O(B^3) orthogonalization for kDense): a bit-flipped width must fail
  // closed, not hang or OOM. Legitimate widths are the padded dimension
  // times at most a small zero-padding factor (Section 5.1); 8x is already
  // far beyond anything the accuracy knob pays for.
  const std::uint64_t padded_dim = (dim + 63) / 64 * 64;
  if (total_bits == 0 || total_bits % 64 != 0 ||
      total_bits > 8 * padded_dim) {
    return Status::IoError("corrupt code width");
  }
  if (rotator_kind > static_cast<std::uint32_t>(RotatorKind::kIdentity)) {
    return Status::IoError("corrupt rotator kind");
  }

  RabitqConfig config;
  // kFht may have rounded the configured width up to a power of two; the
  // stored value is the actual width, which Init accepts for kDense and
  // re-rounds identically for kFht.
  config.total_bits =
      static_cast<RotatorKind>(rotator_kind) == RotatorKind::kFht
          ? 0
          : total_bits;
  config.epsilon0 = epsilon0;
  config.query_bits = static_cast<int>(query_bits);
  config.bits_per_dim = bits_per_dim;
  config.rotator = static_cast<RotatorKind>(rotator_kind);
  config.seed = seed;
  RABITQ_RETURN_IF_ERROR(encoder_.Init(dim, config));
  if (encoder_.total_bits() != total_bits) {
    return Status::IoError("reconstructed code width mismatch");
  }

  std::uint64_t n = 0;
  RABITQ_RETURN_IF_ERROR(reader->ReadU64(&n));
  if (n > (std::uint64_t{1} << 40) / std::max<std::uint64_t>(dim, 1) ||
      n * dim * sizeof(float) > reader->BytesRemaining()) {
    return Status::IoError("corrupt vector count");
  }
  data_.Init(dim);
  {
    // Stream the raw rows into the chunked store a chunk at a time.
    std::vector<float> row_buf(ChunkedVectorStore::kChunkRows * dim);
    for (std::uint64_t r = 0; r < n;) {
      const std::size_t run = static_cast<std::size_t>(
          std::min<std::uint64_t>(ChunkedVectorStore::kChunkRows, n - r));
      RABITQ_RETURN_IF_ERROR(
          reader->ReadBytes(row_buf.data(), run * dim * sizeof(float)));
      for (std::size_t i = 0; i < run; ++i) {
        data_.Append(row_buf.data() + i * dim);
      }
      r += run;
    }
  }

  std::uint64_t num_lists = 0;
  RABITQ_RETURN_IF_ERROR(reader->ReadU64(&num_lists));
  if (num_lists == 0 || num_lists > n + 1 ||
      num_lists * dim * sizeof(float) > reader->BytesRemaining()) {
    return Status::IoError("corrupt list count");
  }
  centroids_.Reset(num_lists, dim);
  RABITQ_RETURN_IF_ERROR(
      reader->ReadBytes(centroids_.data(), centroids_.size() * sizeof(float)));

  rotated_centroids_.Reset(num_lists, encoder_.total_bits());
  for (std::size_t l = 0; l < num_lists; ++l) {
    encoder_.rotator().InverseRotate(centroids_.Row(l),
                                     rotated_centroids_.Row(l));
  }

  // v2 lists may exceed n entries (Update leaves a stale entry per
  // re-encode, unboundedly many until compaction), so the per-list sanity
  // bound comes from the stored total entry count; v1 entries are exactly
  // the n build-time ids.
  std::uint64_t total_entries = n;
  if (has_tombstones) {
    RABITQ_RETURN_IF_ERROR(reader->ReadU64(&total_entries));
    if (total_entries > (std::uint64_t{1} << 40)) {
      return Status::IoError("corrupt entry count");
    }
  }

  lists_.assign(num_lists, List{});
  const std::size_t words = WordsForBits(total_bits);
  std::vector<std::uint64_t> bits(words);
  const std::size_t extra_words =
      bits_per_dim > 1 ? (bits_per_dim - 1) * words : 0;
  std::vector<std::uint64_t> extra(extra_words);
  num_tombstones_ = 0;
  std::uint64_t entries_seen = 0;
  for (List& list : lists_) {
    RABITQ_RETURN_IF_ERROR(
        (reader->ReadArray<std::uint32_t>(&list.ids, total_entries)));
    entries_seen += list.ids.size();
    if (entries_seen > total_entries) {
      return Status::IoError("list entries exceed stored total");
    }
    if (has_tombstones) {
      RABITQ_RETURN_IF_ERROR(
          (reader->ReadArray<std::uint8_t>(&list.dead, total_entries)));
      if (list.dead.size() != list.ids.size()) {
        return Status::IoError("list id/tombstone count mismatch");
      }
      for (const std::uint8_t d : list.dead) list.num_dead += d != 0;
      num_tombstones_ += list.num_dead;
    } else {
      list.dead.assign(list.ids.size(), 0);
    }
    std::uint64_t codes = 0;
    RABITQ_RETURN_IF_ERROR(reader->ReadU64(&codes));
    if (codes != list.ids.size()) {
      return Status::IoError("list id/code count mismatch");
    }
    list.codes.Init(total_bits, metric_, bits_per_dim);
    list.codes.Reserve(codes);
    for (std::uint64_t i = 0; i < codes; ++i) {
      float dist = 0.0f, o_o = 0.0f, norm_sq = 0.0f;
      std::uint32_t bit_count = 0;
      RABITQ_RETURN_IF_ERROR(
          reader->ReadBytes(bits.data(), words * sizeof(std::uint64_t)));
      RABITQ_RETURN_IF_ERROR(reader->ReadF32(&dist));
      RABITQ_RETURN_IF_ERROR(reader->ReadF32(&o_o));
      RABITQ_RETURN_IF_ERROR(reader->ReadU32(&bit_count));
      // Pre-v3 snapshots carry no norms; they are all-kL2, whose factors
      // never read norm_sq, so 0 is not just a placeholder but exact.
      if (has_norm_sq) {
        RABITQ_RETURN_IF_ERROR(reader->ReadF32(&norm_sq));
      }
      if (bits_per_dim > 1) {
        float m_o_o = 1.0f, m_alpha = 0.0f, m_beta = 0.0f, m_code_sum = 0.0f;
        RABITQ_RETURN_IF_ERROR(reader->ReadBytes(
            extra.data(), extra_words * sizeof(std::uint64_t)));
        RABITQ_RETURN_IF_ERROR(reader->ReadF32(&m_o_o));
        RABITQ_RETURN_IF_ERROR(reader->ReadF32(&m_alpha));
        RABITQ_RETURN_IF_ERROR(reader->ReadF32(&m_beta));
        RABITQ_RETURN_IF_ERROR(reader->ReadF32(&m_code_sum));
        list.codes.Append(bits.data(), dist, o_o, bit_count, norm_sq,
                          extra.data(), m_o_o, m_alpha, m_beta, m_code_sum);
      } else {
        list.codes.Append(bits.data(), dist, o_o, bit_count, norm_sq);
      }
    }
  }

  // Rebuild the per-id lifecycle state from the list contents: an id is
  // live iff it has a (unique) non-dead entry.
  id_live_.assign(n, 0);
  id_to_list_.assign(n, 0);
  id_to_pos_.assign(n, 0);
  live_count_ = 0;
  for (std::size_t l = 0; l < lists_.size(); ++l) {
    const List& list = lists_[l];
    for (std::size_t p = 0; p < list.ids.size(); ++p) {
      const std::uint32_t id = list.ids[p];
      if (id >= n) return Status::IoError("list id out of range");
      if (list.dead[p]) continue;
      if (id_live_[id]) {
        return Status::IoError("id live in more than one list entry");
      }
      id_live_[id] = 1;
      id_to_list_[id] = static_cast<std::uint32_t>(l);
      id_to_pos_[id] = static_cast<std::uint32_t>(p);
      ++live_count_;
    }
  }
  // The structural bounds above catch impossible shapes; the footer catches
  // everything else (flipped payload bits that still parse).
  if (has_checksum) {
    RABITQ_RETURN_IF_ERROR(reader->VerifyChecksumFooter());
  }
  return Status::Ok();
}

}  // namespace rabitq
