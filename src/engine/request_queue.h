// Micro-batching submission queue: producer threads Push submissions (a
// SubmitAsync is a group of one query, a SearchBatch call one group of n);
// the engine's single scheduler thread PopBatch-es whole groups, lingering a
// bounded time when a lone query waits -- trading a small, configurable
// latency hit for the amortization wins of batch execution.
//
// The queue is the engine's only admission-control point: Push refuses a
// whole group that would pass the capacity bound (bounded memory under
// overload), and PopBatch sheds queries whose deadline expired while queued.

#ifndef RABITQ_ENGINE_REQUEST_QUEUE_H_
#define RABITQ_ENGINE_REQUEST_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <vector>

#include "index/ivf.h"
#include "index/search_types.h"
#include "util/status.h"

namespace rabitq {

/// One queued query, owning a copy of the vector (the caller's buffer may
/// die immediately after SubmitAsync returns; the options' IdFilter stays a
/// view -- its bitmap/context must live until the future resolves). `seed`
/// is already resolved: options.seed when the caller set one, else the
/// engine's derived seed drawn at submission.
struct QueuedQuery {
  std::vector<float> query;
  SearchOptions options;
  std::uint64_t seed = 0;
  std::chrono::steady_clock::time_point submit_time;
  std::promise<SearchResponse> promise;
};

class RequestQueue {
 public:
  /// Outcome of a Push: admitted, bounced off the capacity bound, or
  /// refused because the queue was closed. On kFull/kClosed the group is
  /// left untouched, so the producer can fail its promises.
  enum class PushResult { kAccepted, kFull, kClosed };

  /// `capacity` bounds how many queries may wait at once (the admission
  /// control of the overload story); 0 means unbounded.
  explicit RequestQueue(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Enqueues group[0, n) as one submission, or refuses it whole (see
  /// PushResult): kFull when queued + n would pass capacity.
  PushResult Push(QueuedQuery* group, std::size_t n) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return PushResult::kClosed;
      if (capacity_ != 0 && queue_.size() + n > capacity_) {
        return PushResult::kFull;
      }
      for (std::size_t i = 0; i < n; ++i) {
        queue_.push_back(std::move(group[i]));
      }
      group_sizes_.push_back(n);
    }
    ready_.notify_one();
    return PushResult::kAccepted;
  }

  /// Blocks until a submission is available or the queue is closed, then
  /// moves whole submissions in FIFO order into `*out` (cleared first) until
  /// the next would pass `max_batch` -- always at least one, so none is
  /// split and max_batch = 0 still progresses. Only a lone query at the
  /// front lingers, at most `linger`, for the batch to fill. Queries whose
  /// deadline expired while queued go to `*shed` instead (not counted toward
  /// max_batch): executing them would waste a batch slot on a guaranteed
  /// kDeadlineExceeded. Returns false only when the queue is closed AND
  /// drained -- the scheduler's exit condition, which guarantees every
  /// accepted query is answered (served or shed).
  bool PopBatch(std::size_t max_batch, std::chrono::microseconds linger,
                std::vector<QueuedQuery>* out, std::vector<QueuedQuery>* shed) {
    out->clear();
    shed->clear();
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [this] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return false;  // closed and drained
    if (group_sizes_.front() == 1 && queue_.size() < max_batch && !closed_ &&
        linger.count() > 0) {
      ready_.wait_for(lock, linger, [this, max_batch] {
        return closed_ || queue_.size() >= max_batch;
      });
    }
    const auto now = std::chrono::steady_clock::now();
    while (!group_sizes_.empty()) {
      const std::size_t n = group_sizes_.front();
      if (!out->empty() && out->size() + n > max_batch) break;
      for (std::size_t i = 0; i < n; ++i) {
        QueuedQuery& front = queue_.front();
        const bool expired =
            front.options.deadline != SearchOptions::kNoDeadline &&
            now >= front.options.deadline;
        (expired ? shed : out)->push_back(std::move(front));
        queue_.pop_front();
      }
      group_sizes_.pop_front();
    }
    return true;
  }

  /// Stops admission; PopBatch keeps draining what was queued.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }

 private:
  const std::size_t capacity_;
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<QueuedQuery> queue_;         // every queued query, FIFO
  std::deque<std::size_t> group_sizes_;  // submission boundaries in queue_
  bool closed_ = false;
};

}  // namespace rabitq

#endif  // RABITQ_ENGINE_REQUEST_QUEUE_H_
