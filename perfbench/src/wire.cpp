#include "wire.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

namespace perfbench {

namespace {

std::atomic<pid_t> g_server_pid{-1};

void OnTerminate(int sig) {
  const pid_t pid = g_server_pid.load();
  if (pid > 0) ::kill(pid, SIGKILL);
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

/// Runs fn(worker) for workers [0, n): worker 0 on the calling thread, the
/// rest on their own threads, so the generator never holds more threads
/// than connections.
template <typename Fn>
void RunWorkers(std::size_t n, Fn fn) {
  std::vector<std::thread> threads;
  threads.reserve(n > 0 ? n - 1 : 0);
  for (std::size_t w = 1; w < n; ++w) threads.emplace_back(fn, w);
  fn(std::size_t{0});
  for (std::thread& t : threads) t.join();
}

/// A write with its target and payload chosen before it is due.
struct PreparedWrite {
  Op op = Op::kAdd;
  std::size_t pool_index = 0;
  std::uint32_t id = 0;
  std::vector<float> vec;
};

PreparedWrite PrepareWrite(const WireContext& ctx, WritePool* pool, Op op) {
  PreparedWrite pw;
  if (op != Op::kAdd && pool->ids.empty()) op = Op::kAdd;
  pw.op = op;
  if (op != Op::kAdd) {
    pw.pool_index = pool->rng.UniformInt(pool->ids.size());
    pw.id = pool->ids[pw.pool_index];
  }
  if (op != Op::kDelete) {
    pw.vec.resize(ctx.workload->dim);
    const std::size_t comp = pool->rng.UniformInt(ctx.workload->hot_components);
    ctx.mixture->Sample(comp, &pool->rng, pw.vec.data());
  }
  return pw;
}

bool ExecuteWrite(const WireContext& ctx, rabitq::server::Client* client,
                  WritePool* pool, const PreparedWrite& pw) {
  const std::size_t dim = ctx.workload->dim;
  switch (pw.op) {
    case Op::kAdd: {
      std::uint32_t id = 0;
      if (!client->Add(ctx.collection, pw.vec.data(), dim, &id).ok()) {
        return false;
      }
      ctx.live->Set(id, pw.vec.data());
      pool->ids.push_back(id);
      return true;
    }
    case Op::kUpdate:
      if (!client->Update(ctx.collection, pw.id, pw.vec.data(), dim).ok()) {
        return false;
      }
      ctx.live->Set(pw.id, pw.vec.data());
      return true;
    case Op::kDelete:
      if (!client->Delete(ctx.collection, pw.id).ok()) return false;
      ctx.live->Erase(pw.id);
      pool->ids[pw.pool_index] = pool->ids.back();
      pool->ids.pop_back();
      return true;
    case Op::kSearch:
      break;
  }
  return false;
}

template <typename T>
void AppendAll(std::vector<T>* into, const std::vector<T>& from) {
  into->insert(into->end(), from.begin(), from.end());
}

}  // namespace

void Append(PhaseResult* into, const PhaseResult& from) {
  AppendAll(&into->search_us, from.search_us);
  AppendAll(&into->write_us, from.write_us);
  AppendAll(&into->gen_lag_us, from.gen_lag_us);
  into->late_sends += from.late_sends;
  into->backlogged += from.backlogged;
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->ops_done += from.ops_done;
  into->seconds += from.seconds;
}

rabitq::Status ServerProcess::Start(const std::string& binary,
                                    const std::string& root_dir) {
  Stop();
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    return rabitq::Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return rabitq::Status::IoError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execl(binary.c_str(), binary.c_str(), "--port", "0", "--root",
            root_dir.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(fds[1]);
  pid_ = pid;
  out_fd_ = fds[0];
  g_server_pid.store(pid);

  // Wait for "rabitq_server listening on HOST:PORT ...".
  std::string line;
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    pollfd pfd{out_fd_, POLLIN, 0};
    if (left.count() <= 0 ||
        ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
      Stop();
      return rabitq::Status::IoError("server did not report its port");
    }
    char buf[256];
    const ssize_t got = ::read(out_fd_, buf, sizeof(buf));
    if (got <= 0) {
      Stop();
      return rabitq::Status::IoError("server exited before listening");
    }
    line.append(buf, static_cast<std::size_t>(got));
  }
  const std::size_t on = line.find("listening on ");
  const std::size_t colon = line.find(':', on == std::string::npos ? 0 : on);
  if (on == std::string::npos || colon == std::string::npos) {
    Stop();
    return rabitq::Status::IoError("unexpected server banner: " + line);
  }
  port_ = static_cast<std::uint16_t>(std::atoi(line.c_str() + colon + 1));
  if (port_ == 0) {
    Stop();
    return rabitq::Status::IoError("bad port in banner: " + line);
  }
  return rabitq::Status::Ok();
}

void ServerProcess::Stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    bool reaped = false;
    for (int i = 0; i < 1000 && !reaped; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        reaped = true;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    if (!reaped) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    g_server_pid.store(-1);
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
  port_ = 0;
}

long long ServerProcess::RssBytes() const {
  if (pid_ <= 0) return -1;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      long long kb = -1;
      status >> kb;
      return kb < 0 ? -1 : kb * 1024;
    }
    status.ignore(1 << 20, '\n');
  }
  return -1;
}

void InstallTerminationHandler() {
  ::signal(SIGTERM, OnTerminate);
  ::signal(SIGINT, OnTerminate);
  ::signal(SIGPIPE, SIG_IGN);
}

PhaseResult RunOpenLoop(const WireContext& ctx, double rate, std::size_t count,
                        std::size_t first_query, const Mix& mix,
                        std::uint64_t stream) {
  // The whole schedule is drawn up front from the seed: due offsets
  // (Poisson arrivals) and a shuffled operation list holding each type's
  // exact share, so every window has the same number of samples per type.
  rabitq::Rng rng(rabitq::MixSeed(ctx.seed, stream));
  std::vector<double> due_us(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += -std::log(1.0 - rng.UniformDouble()) * 1e6 / rate;
    due_us[i] = t;
  }
  auto share = [count](double s) {
    return static_cast<std::size_t>(std::llround(s * static_cast<double>(count)));
  };
  std::vector<Op> ops;
  ops.reserve(count);
  ops.insert(ops.end(), std::min(count, share(mix.search)), Op::kSearch);
  ops.insert(ops.end(), std::min(count - ops.size(), share(mix.add)), Op::kAdd);
  ops.insert(ops.end(), std::min(count - ops.size(), share(mix.update)),
             Op::kUpdate);
  ops.resize(count, Op::kDelete);
  for (std::size_t i = count; i > 1; --i) {
    std::swap(ops[i - 1], ops[rng.UniformInt(i)]);
  }

  const std::size_t workers = ctx.clients->size();
  const std::size_t nq = ctx.queries->rows();
  std::vector<PhaseResult> per_worker(workers);
  std::atomic<std::size_t> next{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);

  RunWorkers(workers, [&](std::size_t w) {
    PhaseResult& out = per_worker[w];
    rabitq::server::Client& client = (*ctx.clients)[w];
    WritePool& pool = (*ctx.pools)[w];
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) break;
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::micro>(due_us[i]));
      PreparedWrite pw;
      const bool is_search = ops[i] == Op::kSearch;
      if (!is_search) pw = PrepareWrite(ctx, &pool, ops[i]);
      const std::size_t qi = (first_query + i) % nq;
      const rabitq::SearchOptions options = SeededOptions(*ctx.workload, ctx.seed, qi);

      if (Clock::now() < due) {
        std::this_thread::sleep_until(due);
        const double lag = MicrosBetween(due, Clock::now());
        out.gen_lag_us.push_back(lag);
        if (lag > kLateSendUs) ++out.late_sends;
      } else {
        ++out.backlogged;
      }
      bool ok = false;
      if (is_search) {
        ok = client
                 .Search(ctx.collection, ctx.queries->Row(qi),
                         ctx.workload->dim, options)
                 .status.ok();
      } else {
        ok = ExecuteWrite(ctx, &client, &pool, pw);
      }
      const Clock::time_point done = Clock::now();
      const double latency = ok ? MicrosBetween(due, done) : kFailedLatency;
      ++out.attempted;
      if (ok) {
        ++out.ops_done;
      } else {
        ++out.failed;
      }
      (is_search ? out.search_us : out.write_us).push_back(latency);
    }
  });

  PhaseResult result;
  for (const PhaseResult& r : per_worker) Append(&result, r);
  result.seconds = MicrosBetween(start, Clock::now()) * 1e-6;
  return result;
}

PhaseResult RunClosedLoop(const WireContext& ctx, double seconds,
                          std::size_t min_requests, const Mix& mix,
                          std::uint64_t stream) {
  const std::size_t workers = ctx.clients->size();
  const std::size_t frame = std::max<std::size_t>(1, ctx.workload->frame);
  const std::size_t nq = ctx.queries->rows();
  const std::size_t frames_in_set = std::max<std::size_t>(1, nq / frame);
  std::vector<PhaseResult> per_worker(workers);
  std::atomic<std::size_t> requests{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<Clock::time_point> finished(workers, start);

  RunWorkers(workers, [&](std::size_t w) {
    PhaseResult& out = per_worker[w];
    rabitq::server::Client& client = (*ctx.clients)[w];
    WritePool& pool = (*ctx.pools)[w];
    rabitq::Rng rng(rabitq::MixSeed(ctx.seed, stream * 1000 + w));
    std::size_t cursor = w * 7919;
    std::vector<rabitq::SearchResponse> responses;
    while (Clock::now() < stop ||
           requests.load(std::memory_order_relaxed) < min_requests) {
      const Op op = DrawOp(mix, &rng);
      bool ok = false;
      std::size_t ops = 1;
      Clock::time_point begin;
      if (op == Op::kSearch && frame == 1) {
        const std::size_t qi = cursor++ % nq;
        const rabitq::SearchOptions options = SeededOptions(*ctx.workload, ctx.seed, qi);
        begin = Clock::now();
        ok = client
                 .Search(ctx.collection, ctx.queries->Row(qi),
                         ctx.workload->dim, options)
                 .status.ok();
      } else if (op == Op::kSearch) {
        // Frames of consecutive query rows; without an explicit seed the
        // server seeds query i of a batch deterministically from i.
        const std::size_t first = (cursor++ % frames_in_set) * frame;
        ops = frame;
        begin = Clock::now();
        ok = client
                 .BatchSearch(ctx.collection, ctx.queries->Row(first), frame,
                              ctx.workload->dim, BaseOptions(*ctx.workload),
                              &responses)
                 .ok();
      } else {
        const PreparedWrite pw = PrepareWrite(ctx, &pool, op);
        begin = Clock::now();
        ok = ExecuteWrite(ctx, &client, &pool, pw);
      }
      const double latency =
          ok ? MicrosBetween(begin, Clock::now()) : kFailedLatency;
      (op == Op::kSearch ? out.search_us : out.write_us).push_back(latency);
      requests.fetch_add(1, std::memory_order_relaxed);
      out.attempted += ops;
      if (ok) {
        out.ops_done += ops;
      } else {
        out.failed += ops;
      }
    }
    finished[w] = Clock::now();
  });

  PhaseResult result;
  for (const PhaseResult& r : per_worker) Append(&result, r);
  result.seconds =
      MicrosBetween(start, *std::max_element(finished.begin(), finished.end())) *
      1e-6;
  return result;
}

}  // namespace perfbench
