// The TCP server: thread-per-connection framing loop over net.h, dispatching
// protocol.h messages onto a CollectionManager. The engine already owns the
// hard serving problems (bounded admission, queued-deadline shedding,
// partial responses, graceful drain); this layer's job is to map them onto
// the wire without losing information:
//
//   * Search (SubmitAsync) and BatchSearch (SearchBatch, one submission of
//     n queries) both go through the engine's request queue -- one queue,
//     one admission bound, one micro-batcher across ALL connections -- so
//     an overloaded server answers kResourceExhausted / kDeadlineExceeded
//     protocol statuses instead of stalling accepts, and concurrent
//     clients' queries and batches coalesce into shared batches exactly
//     like in-process producers. A BatchSearch is admitted or refused whole.
//   * Framing errors (bad magic/version, oversized body, CRC mismatch, torn
//     read) fail CLOSED: the connection drops without a response -- a peer
//     that cannot frame cannot be trusted to parse one. Well-framed but
//     malformed bodies get an InvalidArgument response instead.
//   * Drain: replies Ok first, then initiates shutdown (stop accepting,
//     unblock every connection's read). Wait() joins the threads and drains
//     every collection -- the join cannot happen on the connection thread
//     that carried the drain request.
//   * Slow/dead peers are bounded by per-socket SO_RCVTIMEO/SO_SNDTIMEO;
//     a tripped timeout is a framing error (drop).
//
// Failpoints (RABITQ_FAILPOINTS builds): "server.accept" fails one accept,
// "server.conn_read" tears an inbound frame read, "server.conn_write"
// writes HALF a response frame then fails -- the torn-write drill clients
// must survive.

#ifndef RABITQ_SERVER_SERVER_H_
#define RABITQ_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "server/collection.h"
#include "server/net.h"
#include "server/protocol.h"

namespace rabitq {
namespace server {

struct ServerConfig {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back via port() (how tests avoid
  /// racing over a fixed port).
  std::uint16_t port = 0;
  int backlog = 128;
  /// Per-connection socket read/write timeout; a peer idle longer is
  /// dropped. 0 disables (not recommended outside tests).
  std::uint64_t io_timeout_ms = 60000;
  /// Accepted connections beyond this are closed immediately (counted in
  /// rabitq_server_connections_rejected_total).
  std::size_t max_connections = 256;
  /// Global cap on frame bodies buffered at once across ALL connections.
  /// Without it, max_connections peers each claiming kMaxFrameBody could
  /// demand max_connections * 256 MiB before a single CRC is checked. A
  /// connection whose claimed body does not fit the budget is dropped
  /// (framing error), same as any other frame the server refuses to read.
  std::size_t frame_memory_budget = 512u << 20;  // 512 MiB
  CollectionManager::Config collections;
};

class Server {
 public:
  explicit Server(const ServerConfig& config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds + listens + starts the acceptor thread.
  Status Start();

  /// Bound port (valid after Start).
  std::uint16_t port() const { return listener_.port(); }

  /// Signals shutdown: stops accepting and unblocks every connection's
  /// read. Safe from any thread, including a connection thread serving a
  /// drain request; idempotent. Does NOT join -- call Wait().
  void Stop();

  /// Blocks until the server has stopped (externally via Stop() or by a
  /// wire drain request), joins the acceptor and every connection thread,
  /// then drains every collection. Call from the owning thread.
  void Wait();

  bool stopping() const { return stopping_.load(std::memory_order_acquire); }

  CollectionManager* collections() { return &manager_; }
  obs::MetricsRegistry* metrics() { return &metrics_; }

 private:
  struct Connection {
    Socket socket;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  /// Thread body: ServeConnection inside a try/catch (a throwing handler or
  /// allocation drops THIS connection, never the process), then cleanup.
  void ConnectionLoop(Connection* conn);
  /// The request/response loop for one connection.
  void ServeConnection(Connection* conn);
  /// Joins finished connection threads (called from the accept loop so the
  /// list does not grow with connection churn).
  void ReapConnections();

  /// Charges `n` bytes against frame_memory_budget; false when it does not
  /// fit. Every successful reservation is paired with ReleaseFrameBytes.
  bool ReserveFrameBytes(std::size_t n);
  void ReleaseFrameBytes(std::size_t n);

  /// Reads one full frame (header + body + CRC), validating as it goes.
  /// NotFound = clean close between frames; any other error = drop. The
  /// body is admitted against frame_memory_budget before it is buffered;
  /// `*reserved` reports the charge the caller must ReleaseFrameBytes once
  /// the body is consumed (set even when the read fails after admission).
  Status ReadFrame(int fd, FrameHeader* header, std::vector<std::uint8_t>* buf,
                   std::size_t* reserved);
  Status WriteFrame(int fd, std::uint16_t type, std::uint64_t request_id,
                    const std::string& body);

  /// Routes one well-framed request to its handler; returns the response
  /// body. Sets *drain_after_reply for kDrain.
  std::string Dispatch(std::uint16_t type, const std::uint8_t* body,
                       std::size_t len, bool* drain_after_reply);

  // Handlers append their response payload AFTER the leading WireStatus.
  std::string HandleCreate(WireReader* r);
  std::string HandleDrop(WireReader* r);
  std::string HandleAdd(WireReader* r);
  std::string HandleDelete(WireReader* r);
  std::string HandleUpdate(WireReader* r);
  std::string HandleSearch(WireReader* r);
  std::string HandleBatchSearch(WireReader* r);
  std::string HandleSnapshot(WireReader* r);
  std::string HandleRestore(WireReader* r);
  std::string HandleStats(WireReader* r);
  std::string HandleListCollections(WireReader* r);

  ServerConfig config_;
  CollectionManager manager_;
  Listener listener_;
  std::thread acceptor_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};

  std::mutex conn_mutex_;
  std::list<std::unique_ptr<Connection>> connections_;
  std::atomic<std::size_t> active_connections_{0};
  std::atomic<std::size_t> frame_bytes_in_use_{0};

  // Server-level telemetry (the engines keep their own registries; the
  // stats endpoint stitches them together per collection).
  obs::MetricsRegistry metrics_;
  obs::Counter* connections_total_;
  obs::Counter* connections_rejected_;
  obs::Counter* requests_total_;
  obs::Counter* frame_errors_;
  obs::Counter* request_errors_;
  obs::Counter* accept_errors_;
  obs::Gauge* gauge_active_connections_;
  obs::Gauge* gauge_collections_;
};

}  // namespace server
}  // namespace rabitq

#endif  // RABITQ_SERVER_SERVER_H_
