// Blocking C++ client for the rabitq server: one TCP connection, one
// request in flight at a time (the closed-loop shape the bench drives N of).
// Every method is a full round-trip; transport-level failures poison the
// connection (subsequent calls fail fast with FailedPrecondition until
// Connect is called again), while SERVER-reported statuses -- NotFound,
// kResourceExhausted at admission, kDeadlineExceeded with partial results --
// come back as ordinary Status / SearchResponse values, exactly as the
// in-process SearchEngine reports them.
//
// Not thread-safe: one Client per thread (it is cheap; the server is
// thread-per-connection anyway).

#ifndef RABITQ_SERVER_CLIENT_H_
#define RABITQ_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "server/net.h"
#include "server/protocol.h"

namespace rabitq {
namespace server {

class Client {
 public:
  struct Options {
    /// Socket read/write timeout for each round-trip; 0 = none.
    std::uint64_t io_timeout_ms = 60000;
  };

  Client() = default;

  Status Connect(const std::string& host, std::uint16_t port,
                 const Options& options);
  Status Connect(const std::string& host, std::uint16_t port) {
    return Connect(host, port, Options());
  }
  void Close() { socket_.Close(); }
  bool connected() const { return socket_.valid(); }

  Status Ping();

  /// Creates a collection built (and initially filled) from `train`
  /// (rows x spec.dim). The training set rides in the request body.
  Status CreateCollection(const std::string& name,
                          const WireCollectionSpec& spec, const Matrix& train);
  Status DropCollection(const std::string& name);

  Status Add(const std::string& name, const float* vec, std::size_t dim,
             std::uint32_t* id_out = nullptr);
  Status Delete(const std::string& name, std::uint32_t id);
  Status Update(const std::string& name, std::uint32_t id, const float* vec,
                std::size_t dim);

  /// One query. Engine semantics cross the wire intact: options.seed set
  /// makes the result a pure function of (collection, query, options);
  /// options.timeout_us maps onto the server-side deadline machinery;
  /// bitmap filters encode (predicate filters are InvalidArgument).
  /// Transport failures surface in the returned response's status.
  SearchResponse Search(const std::string& name, const float* query,
                        std::size_t dim, const SearchOptions& options);

  /// Client-side batch: one round-trip, one engine submission (SearchBatch)
  /// on the server, admitted or refused whole. Returns the refusal or the
  /// first per-query error (the responses still carry every query's
  /// outcome), or the transport error.
  Status BatchSearch(const std::string& name, const float* queries,
                     std::size_t num, std::size_t dim,
                     const SearchOptions& options,
                     std::vector<SearchResponse>* responses);

  Status Snapshot(const std::string& name);
  Status Restore(const std::string& name);

  /// Stats exposition. `name` empty = server-wide (server counters plus
  /// per-collection labeled series under format 1); non-empty = that
  /// collection's engine registry, unlabeled. format: 0 = JSON,
  /// 1 = Prometheus text.
  Status Stats(const std::string& name, std::uint8_t format,
               std::string* payload);

  Status ListCollections(std::vector<std::string>* names);

  /// Asks the server to shut down gracefully (respond-then-drain).
  Status Drain();

 private:
  /// One round-trip: frame + send + receive + validate (type echo,
  /// request_id echo, CRC). Fills `reader` over the response body, which
  /// lives in `*storage`. Transport/framing failures Close() the socket.
  Status Call(MsgType type, const std::string& body,
              std::vector<std::uint8_t>* storage, WireReader* reader);
  /// Call + decode the leading WireStatus; `reader` is left positioned at
  /// the payload after it.
  Status CallChecked(MsgType type, const std::string& body,
                     std::vector<std::uint8_t>* storage, WireReader* reader);

  Socket socket_;
  std::uint64_t next_request_id_ = 1;
};

}  // namespace server
}  // namespace rabitq

#endif  // RABITQ_SERVER_CLIENT_H_
