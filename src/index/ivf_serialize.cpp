// Save/Load for IvfRabitqIndex. Snapshot format v6 ("RBQIVF06") stores the
// metric (a u32 immediately after the header, so it is validated before any
// expensive reconstruction), the RabitqConfig -- including bits_per_dim (a
// u32 right after the config seed, validated up front like the metric) --
// the raw vectors, the coarse centroids, and per list the ids, positional
// tombstones and the code store. The code store writes itself
// (RabitqCodeStore::Save): its packed fast-scan planes and resident factor
// arrays as they sit in memory, so saving unpacks nothing and loading
// derives nothing. The rotation is reconstructed deterministically from
// (dim, bits, kind, seed) at load time, mirroring the paper's observation
// that the codebook never needs to be materialized.
// Every byte after the 12-byte header is covered by a CRC-32 footer, so
// bit-rot fails closed in Load with a checksum IoError instead of
// reconstructing garbage that happens to pass the structural bounds. Save
// is also crash-safe -- the blob is written to `<path>.tmp` and renamed
// into place only after a clean Close, so a crash or injected write fault
// mid-save leaves the previous snapshot intact.
//
// Legacy files still load. v1-v5 keep per-code records of the bit strings
// and the encoder's primaries instead of the store's memory image
// (RabitqCodeStore::LoadLegacy reads them and derives the factors with
// DeriveFactors, bit-identical to encoding):
//   v5 ("RBQIVF05"): the v6 layout otherwise, CRC footer included;
//   v4 ("RBQIVF04"): v5 minus the footer;
//   v3 ("RBQIVF03"): written before multi-bit codes -- no bits_per_dim
//       field or multi payload, so it loads as bits_per_dim = 1;
//   v2 ("RBQIVF02"): additionally no metric field or per-code norms;
//   v1 ("RBQIVF01"): written before the index became mutable --
//       additionally no tombstone sections.
// v1/v2 load as Metric::kL2, the only metric that existed then.

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
constexpr char kMagics[][8] = {{'R', 'B', 'Q', 'I', 'V', 'F', '0', '6'},
                               {'R', 'B', 'Q', 'I', 'V', 'F', '0', '5'},
                               {'R', 'B', 'Q', 'I', 'V', 'F', '0', '4'},
                               {'R', 'B', 'Q', 'I', 'V', 'F', '0', '3'},
                               {'R', 'B', 'Q', 'I', 'V', 'F', '0', '2'},
                               {'R', 'B', 'Q', 'I', 'V', 'F', '0', '1'}};
constexpr std::uint32_t kVersions[] = {6, 5, 4, 3, 2, 1};
constexpr std::uint32_t kVersionV2 = 2;  // adds tombstones
constexpr std::uint32_t kVersionV3 = 3;  // adds metric + per-code norms
constexpr std::uint32_t kVersionV4 = 4;  // adds bits_per_dim + multi planes
constexpr std::uint32_t kVersionV5 = 5;  // adds the CRC-32 body footer
constexpr std::uint32_t kVersionV6 = 6;  // code stores as they sit in memory
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
  // Everything after the header feeds the CRC-32 footer.
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
  // v4: the code width per dimension; gates the multi-bit planes and
  // factors.
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

  // Per-list ids, tombstones and code stores.
  for (const List& list : lists_) {
    RABITQ_FAILPOINT("snapshot.write",
                     return Status::IoError("injected snapshot write fault"));
    RABITQ_RETURN_IF_ERROR(
        writer->WriteArray(list.ids.data(), list.ids.size()));
    RABITQ_RETURN_IF_ERROR(
        writer->WriteArray(list.dead.data(), list.dead.size()));
    RABITQ_RETURN_IF_ERROR(list.codes.Save(writer.get()));
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
  const bool has_store_image = kVersions[format] >= kVersionV6;

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
    list.codes.Init(total_bits, metric_, bits_per_dim);
    RABITQ_RETURN_IF_ERROR(
        has_store_image
            ? list.codes.Load(reader.get(), list.ids.size())
            : list.codes.LoadLegacy(reader.get(), list.ids.size(),
                                    has_norm_sq));
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
