// The over-the-wire half of the benchmark: the rabitq_server child process
// and the load generator's open-loop and closed-loop phases.

#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "server/client.h"

namespace perfbench {

/// The shipped rabitq_server binary, run as a child process with its
/// default engine settings on an ephemeral port. The destructor stops it
/// and waits for it; the child also dies with the driver (PDEATHSIG).
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  rabitq::Status Start(const std::string& binary, const std::string& root_dir);
  /// SIGTERM, then SIGKILL after a grace period; always reaps the child.
  void Stop();

  bool running() const { return pid_ > 0; }
  std::uint16_t port() const { return port_; }
  /// Resident set size of the server (VmRSS), or -1 when unreadable.
  long long RssBytes() const;

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Kills the running server child if the driver itself is terminated.
void InstallTerminationHandler();

/// Per-connection write state. Each worker owns the ids it writes (the
/// initial hot ids are split by id modulo the worker count, added ids stay
/// with their adder), so concurrent writers never race on one id and the
/// live-set model stays exact.
struct WritePool {
  std::vector<std::uint32_t> ids;
  rabitq::Rng rng;
};

struct WireContext {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  const char* collection = "bench";
  const rabitq::Matrix* queries = nullptr;
  const Mixture* mixture = nullptr;
  LiveSet* live = nullptr;
  std::vector<rabitq::server::Client>* clients = nullptr;  // one per worker
  std::vector<WritePool>* pools = nullptr;                 // one per worker
};

struct PhaseResult {
  std::vector<double> search_us;  // per search request (closed: per frame)
  std::vector<double> write_us;   // per Add/Update/Delete request
  std::vector<double> gen_lag_us;  // send time - due time, on-time sends
  std::size_t late_sends = 0;      // generator lag above kLateSendUs
  std::size_t backlogged = 0;      // due while every connection was busy
  std::size_t attempted = 0;       // operations (a frame of m counts m)
  std::size_t failed = 0;
  std::size_t ops_done = 0;
  double seconds = 0.0;
};

/// A send later than this after its due time, with a connection free,
/// means the generator itself fell behind.
inline constexpr double kLateSendUs = 1000.0;

/// Open loop: `count` requests with exponential inter-arrival times at
/// `rate` per second over every worker connection. Each request is timed
/// from when it was due, so a stall also charges the requests queued
/// behind it.
/// Request i searches query row (first_query + i) mod the query count.
PhaseResult RunOpenLoop(const WireContext& ctx, double rate, std::size_t count,
                        std::size_t first_query, const Mix& mix,
                        std::uint64_t stream);

/// Closed loop: every worker connection sends its next request as soon as
/// the previous one returns, for `seconds` and at least `min_requests`
/// requests (so a slowed-down host still yields a supported p99). Searches
/// go out as frames of workload.frame queries (BatchSearch when > 1).
PhaseResult RunClosedLoop(const WireContext& ctx, double seconds,
                          std::size_t min_requests, const Mix& mix,
                          std::uint64_t stream);

/// Adds `from`'s samples, counts and seconds to `into`.
void Append(PhaseResult* into, const PhaseResult& from);

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
