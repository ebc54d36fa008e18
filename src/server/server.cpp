#include "server/server.h"

#include <cstring>
#include <exception>
#include <utility>

#include "obs/export.h"
#include "util/failpoint.h"

namespace rabitq {
namespace server {

namespace {

std::string StatusBody(const Status& status) {
  std::string body;
  WireWriter w(&body);
  EncodeStatus(WireStatus::FromStatus(status), &w);
  return body;
}

std::string MalformedBody(const char* what) {
  return StatusBody(Status::InvalidArgument(std::string("malformed ") + what +
                                            " request body"));
}

/// A connection's reusable frame buffer is shrunk back below this after any
/// larger frame, so one big create does not pin 256 MiB per idle connection.
constexpr std::size_t kFrameBufferRetain = 1u << 20;  // 1 MiB

}  // namespace

Server::Server(const ServerConfig& config)
    : config_(config), manager_(config.collections) {
  connections_total_ = metrics_.GetCounter(
      "rabitq_server_connections_total", "Connections accepted");
  connections_rejected_ = metrics_.GetCounter(
      "rabitq_server_connections_rejected_total",
      "Connections closed at accept (max_connections)");
  requests_total_ = metrics_.GetCounter("rabitq_server_requests_total",
                                        "Well-framed requests dispatched");
  frame_errors_ = metrics_.GetCounter(
      "rabitq_server_frame_errors_total",
      "Connections dropped on framing errors (magic/version/CRC/torn read)");
  request_errors_ = metrics_.GetCounter(
      "rabitq_server_request_errors_total",
      "Requests answered with a non-OK status");
  accept_errors_ = metrics_.GetCounter("rabitq_server_accept_errors_total",
                                       "Transient accept failures survived");
  gauge_active_connections_ = metrics_.GetGauge(
      "rabitq_server_connections_active", "Currently served connections");
  gauge_collections_ =
      metrics_.GetGauge("rabitq_server_collections", "Live collections");
}

Server::~Server() {
  Stop();
  Wait();
}

Status Server::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("server already started");
  }
  RABITQ_RETURN_IF_ERROR(
      listener_.Listen(config_.host, config_.port, config_.backlog));
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void Server::Stop() {
  if (stopping_.exchange(true)) return;
  listener_.Shutdown();
  std::lock_guard<std::mutex> lock(conn_mutex_);
  // Unblock readers; in-flight responses still flush before the loops exit.
  for (auto& conn : connections_) conn->socket.ShutdownRead();
}

void Server::Wait() {
  if (acceptor_.joinable()) acceptor_.join();
  for (;;) {
    std::unique_ptr<Connection> conn;
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      if (connections_.empty()) break;
      conn = std::move(connections_.front());
      connections_.pop_front();
    }
    if (conn->thread.joinable()) conn->thread.join();
  }
  listener_.Close();
  manager_.DrainAll();
}

void Server::ReapConnections() {
  std::lock_guard<std::mutex> lock(conn_mutex_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::AcceptLoop() {
  while (!stopping()) {
    bool injected_accept_fault = false;
    RABITQ_FAILPOINT("server.accept", injected_accept_fault = true);
    if (injected_accept_fault) {
      accept_errors_->Increment();
      continue;
    }
    Socket socket;
    const Status status = listener_.Accept(&socket);
    if (!status.ok()) {
      if (stopping()) break;
      // Transient accept failure (EMFILE and friends): keep serving.
      accept_errors_->Increment();
      continue;
    }
    ReapConnections();
    if (active_connections_.load(std::memory_order_relaxed) >=
        config_.max_connections) {
      connections_rejected_->Increment();
      continue;  // socket closes on scope exit
    }
    if (config_.io_timeout_ms != 0) {
      (void)socket.SetIoTimeout(config_.io_timeout_ms);
    }
    connections_total_->Increment();
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    gauge_active_connections_->Set(
        static_cast<double>(active_connections_.load()));

    auto conn = std::make_unique<Connection>();
    conn->socket = std::move(socket);
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      if (stopping()) {
        // Raced with Stop(): Stop's shutdown pass already ran. Drop it.
        active_connections_.fetch_sub(1, std::memory_order_relaxed);
        break;
      }
      connections_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { ConnectionLoop(raw); });
  }
}

bool Server::ReserveFrameBytes(std::size_t n) {
  if (n == 0) return true;
  std::size_t used = frame_bytes_in_use_.load(std::memory_order_relaxed);
  while (true) {
    if (n > config_.frame_memory_budget ||
        used > config_.frame_memory_budget - n) {
      return false;
    }
    if (frame_bytes_in_use_.compare_exchange_weak(used, used + n,
                                                  std::memory_order_relaxed)) {
      return true;
    }
  }
}

void Server::ReleaseFrameBytes(std::size_t n) {
  if (n != 0) frame_bytes_in_use_.fetch_sub(n, std::memory_order_relaxed);
}

Status Server::ReadFrame(int fd, FrameHeader* header,
                         std::vector<std::uint8_t>* buf,
                         std::size_t* reserved) {
  *reserved = 0;
  RABITQ_FAILPOINT("server.conn_read",
                   return Status::IoError("injected read fault"));
  std::uint8_t head[kFrameHeaderSize];
  RABITQ_RETURN_IF_ERROR(ReadFull(fd, head, sizeof(head)));
  RABITQ_RETURN_IF_ERROR(DecodeFrameHeader(head, header));
  // Admit the claimed body against the global budget BEFORE buffering it --
  // the claim is attacker-controlled until the CRC at the end checks out.
  if (!ReserveFrameBytes(header->body_len)) {
    return Status::ResourceExhausted("frame memory budget exhausted");
  }
  *reserved = header->body_len;
  buf->resize(kFrameHeaderSize + header->body_len);
  std::memcpy(buf->data(), head, sizeof(head));
  if (header->body_len > 0) {
    RABITQ_RETURN_IF_ERROR(
        ReadFull(fd, buf->data() + kFrameHeaderSize, header->body_len));
  }
  std::uint8_t crc_bytes[4];
  RABITQ_RETURN_IF_ERROR(ReadFull(fd, crc_bytes, sizeof(crc_bytes)));
  std::uint32_t crc = 0;
  std::memcpy(&crc, crc_bytes, sizeof(crc));
  return CheckFrameCrc(buf->data(), buf->size(), crc);
}

Status Server::WriteFrame(int fd, std::uint16_t type, std::uint64_t request_id,
                          const std::string& body) {
  std::string frame;
  EncodeFrame(type, request_id, body, &frame);
  RABITQ_FAILPOINT("server.conn_write", {
    // Torn write: flush HALF the frame, then fail the connection -- the
    // client-side framing must reject the stub without crashing.
    (void)WriteFull(fd, frame.data(), frame.size() / 2);
    return Status::IoError("injected torn write");
  });
  return WriteFull(fd, frame.data(), frame.size());
}

void Server::ConnectionLoop(Connection* conn) {
  try {
    ServeConnection(conn);
  } catch (const std::exception&) {
    // A throwing handler or a failed allocation (bad_alloc on a huge but
    // well-framed body) costs this connection, never the process.
    frame_errors_->Increment();
  }
  {
    // Close under conn_mutex_ so Stop()'s ShutdownRead pass never races the
    // fd being closed (and possibly reused) underneath it.
    std::lock_guard<std::mutex> lock(conn_mutex_);
    conn->socket.Close();
  }
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
  gauge_active_connections_->Set(
      static_cast<double>(active_connections_.load()));
  conn->done.store(true, std::memory_order_release);
}

void Server::ServeConnection(Connection* conn) {
  const int fd = conn->socket.fd();
  FrameHeader header;
  std::vector<std::uint8_t> buf;
  while (!stopping()) {
    std::size_t reserved = 0;
    const Status read_status = ReadFrame(fd, &header, &buf, &reserved);
    if (!read_status.ok()) {
      ReleaseFrameBytes(reserved);
      // NotFound = peer closed cleanly between frames; anything else is a
      // framing error and the connection fails closed.
      if (read_status.code() != StatusCode::kNotFound && !stopping()) {
        frame_errors_->Increment();
      }
      break;
    }
    if ((header.type & kResponseFlag) != 0) {
      ReleaseFrameBytes(reserved);
      frame_errors_->Increment();
      break;
    }
    requests_total_->Increment();
    bool drain_after_reply = false;
    const std::string body =
        Dispatch(header.type, buf.data() + kFrameHeaderSize, header.body_len,
                 &drain_after_reply);
    // The request body is consumed; return its budget charge and drop an
    // outsized buffer instead of pinning its capacity until the peer leaves.
    ReleaseFrameBytes(reserved);
    if (buf.capacity() > kFrameBufferRetain) {
      buf.clear();
      buf.shrink_to_fit();
    }
    const Status write_status = WriteFrame(
        fd, static_cast<std::uint16_t>(header.type | kResponseFlag),
        header.request_id, body);
    if (!write_status.ok()) {
      frame_errors_->Increment();
      break;
    }
    if (drain_after_reply) {
      // Respond first, then initiate shutdown. Stop() only signals -- the
      // joins happen in Wait() on the owning thread, never here.
      Stop();
      break;
    }
  }
}

std::string Server::Dispatch(std::uint16_t type, const std::uint8_t* body,
                             std::size_t len, bool* drain_after_reply) {
  WireReader r(body, len);
  std::string response;
  switch (static_cast<MsgType>(type)) {
    case MsgType::kPing:
      response = StatusBody(Status::Ok());
      break;
    case MsgType::kCreateCollection:
      response = HandleCreate(&r);
      break;
    case MsgType::kDropCollection:
      response = HandleDrop(&r);
      break;
    case MsgType::kAdd:
      response = HandleAdd(&r);
      break;
    case MsgType::kDelete:
      response = HandleDelete(&r);
      break;
    case MsgType::kUpdate:
      response = HandleUpdate(&r);
      break;
    case MsgType::kSearch:
      response = HandleSearch(&r);
      break;
    case MsgType::kBatchSearch:
      response = HandleBatchSearch(&r);
      break;
    case MsgType::kSnapshot:
      response = HandleSnapshot(&r);
      break;
    case MsgType::kRestore:
      response = HandleRestore(&r);
      break;
    case MsgType::kStats:
      response = HandleStats(&r);
      break;
    case MsgType::kListCollections:
      response = HandleListCollections(&r);
      break;
    case MsgType::kDrain:
      *drain_after_reply = true;
      response = StatusBody(Status::Ok());
      break;
    default:
      response = StatusBody(Status::Unimplemented(
          "unknown message type " + std::to_string(type)));
      break;
  }
  // Every response leads with a WireStatus; count the failures.
  if (response.size() >= 2) {
    std::uint16_t code = 0;
    std::memcpy(&code, response.data(), sizeof(code));
    if (code != 0) request_errors_->Increment();
  }
  gauge_collections_->Set(static_cast<double>(manager_.size()));
  return response;
}

std::string Server::HandleCreate(WireReader* r) {
  std::string name;
  WireCollectionSpec spec;
  std::uint32_t rows = 0;
  if (!r->String(&name) || !DecodeCollectionSpec(r, &spec) || !r->U32(&rows)) {
    return MalformedBody("create_collection");
  }
  // The training floats are the remainder of the body; refuse before
  // allocating if the frame cannot hold what the prefix claims. The cell
  // count is bounded first: rows * dim * 4 wraps uint64 for crafted sizes
  // (rows = dim = 2^31 multiplies out to 0), which would slip an empty
  // remainder past an equality check and drive a ~2^64-byte allocation.
  const std::uint64_t cells = static_cast<std::uint64_t>(rows) * spec.dim;
  if (cells > kMaxFrameBody / sizeof(float) ||
      r->remaining() != cells * sizeof(float)) {
    return MalformedBody("create_collection");
  }
  Matrix train(rows, spec.dim);
  std::vector<float> flat;
  if (!r->Floats(&flat, static_cast<std::size_t>(rows) * spec.dim) ||
      !r->AtEnd()) {
    return MalformedBody("create_collection");
  }
  std::memcpy(train.data(), flat.data(), flat.size() * sizeof(float));
  return StatusBody(manager_.Create(name, spec, train));
}

std::string Server::HandleDrop(WireReader* r) {
  std::string name;
  if (!r->String(&name) || !r->AtEnd()) return MalformedBody("drop_collection");
  return StatusBody(manager_.Drop(name));
}

std::string Server::HandleAdd(WireReader* r) {
  std::string name;
  std::uint32_t dim = 0;
  std::vector<float> vec;
  if (!r->String(&name) || !r->U32(&dim) || !r->Floats(&vec, dim) ||
      !r->AtEnd()) {
    return MalformedBody("add");
  }
  auto collection = manager_.Get(name);
  if (collection == nullptr) {
    return StatusBody(Status::NotFound("no such collection: " + name));
  }
  if (dim != collection->spec.dim) {
    return StatusBody(Status::InvalidArgument("vector dim mismatch"));
  }
  std::uint32_t id = 0;
  const Status status = collection->engine->Insert(vec.data(), &id);
  std::string body = StatusBody(status);
  WireWriter w(&body);
  w.U32(id);
  return body;
}

std::string Server::HandleDelete(WireReader* r) {
  std::string name;
  std::uint32_t id = 0;
  if (!r->String(&name) || !r->U32(&id) || !r->AtEnd()) {
    return MalformedBody("delete");
  }
  auto collection = manager_.Get(name);
  if (collection == nullptr) {
    return StatusBody(Status::NotFound("no such collection: " + name));
  }
  return StatusBody(collection->engine->Delete(id));
}

std::string Server::HandleUpdate(WireReader* r) {
  std::string name;
  std::uint32_t id = 0;
  std::uint32_t dim = 0;
  std::vector<float> vec;
  if (!r->String(&name) || !r->U32(&id) || !r->U32(&dim) ||
      !r->Floats(&vec, dim) || !r->AtEnd()) {
    return MalformedBody("update");
  }
  auto collection = manager_.Get(name);
  if (collection == nullptr) {
    return StatusBody(Status::NotFound("no such collection: " + name));
  }
  if (dim != collection->spec.dim) {
    return StatusBody(Status::InvalidArgument("vector dim mismatch"));
  }
  return StatusBody(collection->engine->Update(id, vec.data()));
}

std::string Server::HandleSearch(WireReader* r) {
  std::string name;
  WireSearchOptions wire_options;
  std::uint32_t dim = 0;
  std::vector<float> query;
  if (!r->String(&name) || !DecodeSearchOptions(r, &wire_options) ||
      !r->U32(&dim) || !r->Floats(&query, dim) || !r->AtEnd()) {
    return MalformedBody("search");
  }
  auto collection = manager_.Get(name);
  if (collection == nullptr) {
    return StatusBody(Status::NotFound("no such collection: " + name));
  }
  if (dim != collection->spec.dim) {
    return StatusBody(Status::InvalidArgument("query dim mismatch"));
  }
  // Through SubmitAsync on purpose: cross-connection micro-batching plus
  // the bounded admission / queued-deadline machinery, so overload answers
  // kResourceExhausted / kDeadlineExceeded instead of stalling the socket.
  // wire_options owns the filter bitmap and outlives the blocking get().
  SearchRequest request;
  request.query = query.data();
  request.options = wire_options.ToOptions();
  SearchResponse engine_response =
      collection->engine->SubmitAsync(request).get();
  std::string body;
  WireWriter w(&body);
  EncodeSearchResponse(engine_response, &w);
  return body;
}

std::string Server::HandleBatchSearch(WireReader* r) {
  std::string name;
  WireSearchOptions wire_options;
  std::uint32_t num = 0;
  std::uint32_t dim = 0;
  if (!r->String(&name) || !DecodeSearchOptions(r, &wire_options) ||
      !r->U32(&num) || !r->U32(&dim)) {
    return MalformedBody("batch_search");
  }
  // Same overflow-safe shape as HandleCreate: bound num * dim before the
  // byte-size multiply can wrap.
  const std::uint64_t cells = static_cast<std::uint64_t>(num) * dim;
  if (cells > kMaxFrameBody / sizeof(float) ||
      r->remaining() != cells * sizeof(float)) {
    return MalformedBody("batch_search");
  }
  std::vector<float> queries;
  if (!r->Floats(&queries, static_cast<std::size_t>(num) * dim) ||
      !r->AtEnd()) {
    return MalformedBody("batch_search");
  }
  auto collection = manager_.Get(name);
  if (collection == nullptr) {
    return StatusBody(Status::NotFound("no such collection: " + name));
  }
  if (dim != collection->spec.dim) {
    return StatusBody(Status::InvalidArgument("query dim mismatch"));
  }
  const SearchOptions options = wire_options.ToOptions();
  std::vector<SearchRequest> requests(num);
  for (std::uint32_t i = 0; i < num; ++i) {
    requests[i].query = queries.data() + static_cast<std::size_t>(i) * dim;
    requests[i].options = options;
  }
  // One engine submission: admitted or refused whole against the same
  // queue and bound as HandleSearch; a refusal still answers one response
  // per query, each carrying the refusal status.
  std::vector<SearchResponse> responses;
  const Status first_error = collection->engine->SearchBatch(
      requests.data(), requests.size(), &responses);
  std::string body = StatusBody(first_error);
  WireWriter w(&body);
  w.U32(static_cast<std::uint32_t>(responses.size()));
  for (const SearchResponse& response : responses) {
    EncodeSearchResponse(response, &w);
  }
  return body;
}

std::string Server::HandleSnapshot(WireReader* r) {
  std::string name;
  if (!r->String(&name) || !r->AtEnd()) return MalformedBody("snapshot");
  return StatusBody(manager_.Snapshot(name));
}

std::string Server::HandleRestore(WireReader* r) {
  std::string name;
  if (!r->String(&name) || !r->AtEnd()) return MalformedBody("restore");
  return StatusBody(manager_.Restore(name));
}

std::string Server::HandleStats(WireReader* r) {
  std::string name;
  std::uint8_t format = 0;
  if (!r->String(&name) || !r->U8(&format) || !r->AtEnd() || format > 1) {
    return MalformedBody("stats");
  }
  std::string payload;
  if (!name.empty()) {
    // One collection, UNLABELED: the historical single-engine exposition
    // (serve_demo --metrics-out greps stay stable against this output).
    auto collection = manager_.Get(name);
    if (collection == nullptr) {
      return StatusBody(Status::NotFound("no such collection: " + name));
    }
    const obs::MetricsSnapshot snapshot =
        collection->engine->SnapshotMetrics();
    payload = format == 0 ? obs::ExportJson(snapshot)
                          : obs::ExportPrometheus(snapshot);
  } else if (format == 1) {
    // Server-wide Prometheus: the server's own counters unlabeled, then
    // every collection's engine registry labeled collection="<name>" --
    // one scrape for the whole tenant set.
    gauge_collections_->Set(static_cast<double>(manager_.size()));
    payload = obs::ExportPrometheus(metrics_.Snapshot());
    for (const std::string& collection_name : manager_.List()) {
      auto collection = manager_.Get(collection_name);
      if (collection == nullptr) continue;  // dropped between List and Get
      payload += obs::ExportPrometheus(
          collection->engine->SnapshotMetrics(),
          "collection=\"" + collection_name + "\"");
    }
  } else {
    gauge_collections_->Set(static_cast<double>(manager_.size()));
    payload = "{\"server\":" + obs::ExportJson(metrics_.Snapshot()) +
              ",\"collections\":{";
    bool first = true;
    for (const std::string& collection_name : manager_.List()) {
      auto collection = manager_.Get(collection_name);
      if (collection == nullptr) continue;
      if (!first) payload += ",";
      first = false;
      payload += "\"" + collection_name + "\":" +
                 obs::ExportJson(collection->engine->SnapshotMetrics());
    }
    payload += "}}";
  }
  std::string body = StatusBody(Status::Ok());
  WireWriter w(&body);
  w.String(payload);
  return body;
}

std::string Server::HandleListCollections(WireReader* r) {
  if (!r->AtEnd()) return MalformedBody("list_collections");
  const std::vector<std::string> names = manager_.List();
  std::string body = StatusBody(Status::Ok());
  WireWriter w(&body);
  w.U32(static_cast<std::uint32_t>(names.size()));
  for (const std::string& name : names) w.String(name);
  return body;
}

}  // namespace server
}  // namespace rabitq
