#include "server/protocol.h"

#include "util/crc32.h"

namespace rabitq {
namespace server {

void EncodeFrame(std::uint16_t type, std::uint64_t request_id,
                 const std::string& body, std::string* out) {
  out->clear();
  out->reserve(kFrameHeaderSize + body.size() + sizeof(std::uint32_t));
  WireWriter w(out);
  w.U32(kFrameMagic);
  w.U16(kProtocolVersion);
  w.U16(type);
  w.U64(request_id);
  w.U32(static_cast<std::uint32_t>(body.size()));
  out->append(body);
  const std::uint32_t crc = Crc32(out->data(), out->size());
  w.U32(crc);
}

Status DecodeFrameHeader(const std::uint8_t* buf, FrameHeader* header) {
  WireReader r(buf, kFrameHeaderSize);
  if (!r.U32(&header->magic) || !r.U16(&header->version) ||
      !r.U16(&header->type) || !r.U64(&header->request_id) ||
      !r.U32(&header->body_len)) {
    return Status::Internal("frame header underrun");
  }
  if (header->magic != kFrameMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  if (header->version != kProtocolVersion) {
    return Status::InvalidArgument("unsupported protocol version");
  }
  if (header->body_len > kMaxFrameBody) {
    return Status::InvalidArgument("frame body exceeds kMaxFrameBody");
  }
  return Status::Ok();
}

Status CheckFrameCrc(const std::uint8_t* frame, std::size_t frame_len,
                     std::uint32_t crc) {
  if (Crc32(frame, frame_len) != crc) {
    return Status::IoError("frame CRC mismatch");
  }
  return Status::Ok();
}

// ------------------------------------------------------------- payloads ---

WireStatus WireStatus::FromStatus(const Status& s) {
  WireStatus w;
  w.code = static_cast<std::uint16_t>(s.code());
  w.message = s.message();
  return w;
}

Status WireStatus::ToStatus() const {
  if (code == 0) return Status::Ok();
  if (code > static_cast<std::uint16_t>(StatusCode::kDeadlineExceeded)) {
    return Status::Internal("unknown wire status code");
  }
  return Status(static_cast<StatusCode>(code), message);
}

void EncodeStatus(const WireStatus& s, WireWriter* w) {
  w->U16(s.code);
  w->String(s.message);
}

bool DecodeStatus(WireReader* r, WireStatus* s) {
  return r->U16(&s->code) && r->String(&s->message);
}

bool WireReader::String(std::string* s) {
  std::uint32_t n = 0;
  if (!U32(&n)) return false;
  if (!ok_ || len_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  s->assign(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return true;
}

bool WireReader::Floats(std::vector<float>* v, std::size_t n) {
  // Bound n first: n * sizeof(float) wraps for attacker-sized counts.
  if (!ok_ || n > (len_ - pos_) / sizeof(float)) {
    ok_ = false;
    return false;
  }
  v->resize(n);
  std::memcpy(v->data(), data_ + pos_, n * sizeof(float));
  pos_ += n * sizeof(float);
  return true;
}

bool WireReader::U64s(std::vector<std::uint64_t>* v, std::size_t n) {
  if (!ok_ || n > (len_ - pos_) / sizeof(std::uint64_t)) {
    ok_ = false;
    return false;
  }
  v->resize(n);
  std::memcpy(v->data(), data_ + pos_, n * sizeof(std::uint64_t));
  pos_ += n * sizeof(std::uint64_t);
  return true;
}

void EncodeCollectionSpec(const WireCollectionSpec& spec, WireWriter* w) {
  w->U32(spec.dim);
  w->U8(static_cast<std::uint8_t>(spec.metric));
  w->U8(spec.bits_per_dim);
  w->U32(spec.num_shards);
  w->U32(spec.num_lists);
}

bool DecodeCollectionSpec(WireReader* r, WireCollectionSpec* spec) {
  std::uint8_t metric = 0;
  if (!r->U32(&spec->dim) || !r->U8(&metric) || !r->U8(&spec->bits_per_dim) ||
      !r->U32(&spec->num_shards) || !r->U32(&spec->num_lists)) {
    return false;
  }
  if (metric > static_cast<std::uint8_t>(kMaxMetricValue)) return false;
  spec->metric = static_cast<Metric>(metric);
  return true;
}

Status WireSearchOptions::FromOptions(const SearchOptions& options,
                                      WireSearchOptions* out) {
  out->k = options.k;
  out->nprobe = options.nprobe;
  out->policy = static_cast<std::uint8_t>(options.policy);
  out->rerank_candidates = options.rerank_candidates;
  out->epsilon0_override = options.epsilon0_override;
  out->seed = options.seed;
  out->timeout_us = options.timeout_us;
  // An absolute deadline has no wire form; re-express whatever budget is
  // left as a relative timeout at encode time.
  if (options.deadline != SearchOptions::kNoDeadline) {
    const auto now = std::chrono::steady_clock::now();
    const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
        options.deadline - now);
    out->timeout_us =
        left.count() > 0 ? static_cast<std::uint64_t>(left.count()) : 1;
  }
  out->filter_kind = 0;
  out->filter_num_ids = 0;
  out->filter_words.clear();
  if (options.filter.active()) {
    if (!options.filter.is_bitmap()) {
      return Status::InvalidArgument(
          "predicate filters cannot cross the wire; use a bitmap filter");
    }
    out->filter_kind = options.filter.is_deny_bitmap() ? 2 : 1;
    out->filter_num_ids = options.filter.bitmap_num_ids();
    const std::size_t words = (options.filter.bitmap_num_ids() + 63) / 64;
    out->filter_words.assign(options.filter.bitmap_words(),
                             options.filter.bitmap_words() + words);
  }
  return Status::Ok();
}

SearchOptions WireSearchOptions::ToOptions() const {
  SearchOptions o;
  o.k = static_cast<std::size_t>(k);
  o.nprobe = static_cast<std::size_t>(nprobe);
  o.policy = static_cast<RerankPolicy>(policy);
  o.rerank_candidates = static_cast<std::size_t>(rerank_candidates);
  o.epsilon0_override = epsilon0_override;
  o.seed = seed;
  o.timeout_us = timeout_us;
  if (filter_kind == 1) {
    o.filter = IdFilter::AllowBitmap(filter_words.data(),
                                     static_cast<std::size_t>(filter_num_ids));
  } else if (filter_kind == 2) {
    o.filter = IdFilter::DenyBitmap(filter_words.data(),
                                    static_cast<std::size_t>(filter_num_ids));
  }
  return o;
}

void EncodeSearchOptions(const WireSearchOptions& o, WireWriter* w) {
  w->U64(o.k);
  w->U64(o.nprobe);
  w->U8(o.policy);
  w->U64(o.rerank_candidates);
  w->F32(o.epsilon0_override);
  w->U8(o.seed.has_value() ? 1 : 0);
  w->U64(o.seed.value_or(0));
  w->U64(o.timeout_us);
  w->U8(o.filter_kind);
  if (o.filter_kind != 0) {
    w->U64(o.filter_num_ids);
    const std::uint32_t words = static_cast<std::uint32_t>(o.filter_words.size());
    w->U32(words);
    w->U64s(o.filter_words.data(), words);
  }
}

bool DecodeSearchOptions(WireReader* r, WireSearchOptions* o) {
  std::uint8_t has_seed = 0;
  std::uint64_t seed = 0;
  if (!r->U64(&o->k) || !r->U64(&o->nprobe) || !r->U8(&o->policy) ||
      !r->U64(&o->rerank_candidates) || !r->F32(&o->epsilon0_override) ||
      !r->U8(&has_seed) || !r->U64(&seed) || !r->U64(&o->timeout_us) ||
      !r->U8(&o->filter_kind)) {
    return false;
  }
  if (o->policy > static_cast<std::uint8_t>(RerankPolicy::kNone)) return false;
  o->seed = has_seed != 0 ? std::optional<std::uint64_t>(seed) : std::nullopt;
  o->filter_num_ids = 0;
  o->filter_words.clear();
  if (o->filter_kind > 2) return false;
  if (o->filter_kind != 0) {
    std::uint32_t words = 0;
    if (!r->U64(&o->filter_num_ids) || !r->U32(&words)) return false;
    // The bitmap must cover exactly the id range it claims. An empty range
    // is meaningless for an active filter, and the word count is computed
    // without `num_ids + 63` (which wraps for num_ids near 2^64 and would
    // let words==0 pass, leaving ToOptions a null bitmap with a huge range).
    if (o->filter_num_ids == 0) return false;
    const std::uint64_t expect_words =
        o->filter_num_ids / 64 + (o->filter_num_ids % 64 != 0 ? 1 : 0);
    if (words != expect_words) return false;
    if (!r->U64s(&o->filter_words, words)) return false;
  }
  return true;
}

void EncodeSearchResponse(const SearchResponse& resp, WireWriter* w) {
  EncodeStatus(WireStatus::FromStatus(resp.status), w);
  w->U8(resp.partial ? 1 : 0);
  w->U32(resp.shards_ok);
  w->U32(resp.shards_failed);
  w->U32(static_cast<std::uint32_t>(resp.neighbors.size()));
  for (const Neighbor& n : resp.neighbors) {
    w->F32(n.first);
    w->U32(n.second);
  }
  w->U64(resp.stats.codes_estimated);
  w->U64(resp.stats.candidates_reranked);
  w->U64(resp.stats.lists_probed);
  w->U64(resp.stats.codes_filtered);
  w->U64(resp.stats.codes_refined);
}

bool DecodeSearchResponse(WireReader* r, SearchResponse* resp) {
  WireStatus ws;
  if (!DecodeStatus(r, &ws)) return false;
  resp->status = ws.ToStatus();
  return DecodeSearchResponseTail(r, resp);
}

bool DecodeSearchResponseTail(WireReader* r, SearchResponse* resp) {
  std::uint8_t partial = 0;
  std::uint32_t count = 0;
  if (!r->U8(&partial) || !r->U32(&resp->shards_ok) ||
      !r->U32(&resp->shards_failed) || !r->U32(&count)) {
    return false;
  }
  resp->partial = partial != 0;
  // Guard the resize against a corrupt count (the frame is CRC-checked, but
  // decode still refuses to allocate past what the payload can hold).
  if (r->remaining() < static_cast<std::size_t>(count) * 8) return false;
  resp->neighbors.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!r->F32(&resp->neighbors[i].first) ||
        !r->U32(&resp->neighbors[i].second)) {
      return false;
    }
  }
  std::uint64_t est = 0, rr = 0, lp = 0, cf = 0, cref = 0;
  if (!r->U64(&est) || !r->U64(&rr) || !r->U64(&lp) || !r->U64(&cf) ||
      !r->U64(&cref)) {
    return false;
  }
  resp->stats = IvfSearchStats{};
  resp->stats.codes_estimated = static_cast<std::size_t>(est);
  resp->stats.candidates_reranked = static_cast<std::size_t>(rr);
  resp->stats.lists_probed = static_cast<std::size_t>(lp);
  resp->stats.codes_filtered = static_cast<std::size_t>(cf);
  resp->stats.codes_refined = static_cast<std::size_t>(cref);
  return true;
}

const char* MsgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kPing: return "ping";
    case MsgType::kCreateCollection: return "create_collection";
    case MsgType::kDropCollection: return "drop_collection";
    case MsgType::kAdd: return "add";
    case MsgType::kDelete: return "delete";
    case MsgType::kUpdate: return "update";
    case MsgType::kSearch: return "search";
    case MsgType::kBatchSearch: return "batch_search";
    case MsgType::kSnapshot: return "snapshot";
    case MsgType::kRestore: return "restore";
    case MsgType::kStats: return "stats";
    case MsgType::kListCollections: return "list_collections";
    case MsgType::kDrain: return "drain";
  }
  return "unknown";
}

}  // namespace server
}  // namespace rabitq
