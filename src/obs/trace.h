// Sampled per-stage query tracing. A QueryTrace is a fixed array of relaxed
// atomic nanosecond accumulators, one per pipeline stage -- atomic because
// one query's (query x shard) cells execute concurrently on different
// workers and each adds its scan/re-rank time into the SAME trace. Sampling
// is a pure function of (query seed, sample period), so the traced subset is
// deterministic across runs, shard counts and thread interleavings -- the
// same property the engine's result determinism is built on.
//
// Cost when a query is NOT sampled: one MixSeed + modulo at batch setup and
// a null-pointer check per stage; no clock reads. A sampled query pays two
// steady_clock reads per stage span.

#ifndef RABITQ_OBS_TRACE_H_
#define RABITQ_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/prng.h"

namespace rabitq {
namespace obs {

/// Pipeline stages of one served query, in execution order.
enum class Stage : std::uint8_t {
  kQueueWait = 0,   // admission (any search) -> batch execution start
  kPreprocess = 1,  // gather + batched query rotation (P^T q)
  kProbeOrder = 2,  // centroid distances + nprobe-prefix ordering
  kScan = 3,        // fused estimate+prune over probed lists (minus re-rank)
  kRerank = 4,      // exact distance computations on surviving candidates
  kMerge = 5,       // sharded gather: merge of per-shard candidate sets
};

inline constexpr int kNumStages = 6;

inline const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kQueueWait: return "queue_wait";
    case Stage::kPreprocess: return "preprocess";
    case Stage::kProbeOrder: return "probe_order";
    case Stage::kScan: return "scan";
    case Stage::kRerank: return "rerank";
    case Stage::kMerge: return "merge";
  }
  return "unknown";
}

/// Per-stage nanosecond accumulators for ONE query. Neither copyable nor
/// movable (atomics); the engine owns an array sized to the largest batch.
class QueryTrace {
 public:
  QueryTrace() = default;
  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  void AddNanos(Stage stage, std::uint64_t ns) {
    ns_[static_cast<int>(stage)].fetch_add(ns, std::memory_order_relaxed);
  }

  std::uint64_t Nanos(Stage stage) const {
    return ns_[static_cast<int>(stage)].load(std::memory_order_relaxed);
  }

  double Micros(Stage stage) const {
    return static_cast<double>(Nanos(stage)) * 1e-3;
  }

  void Clear() {
    for (auto& n : ns_) n.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> ns_[kNumStages] = {};
};

/// RAII span: adds the enclosed wall time to `trace`'s `stage` accumulator.
/// A null trace costs one branch and no clock reads.
class ScopedSpan {
 public:
  ScopedSpan(QueryTrace* trace, Stage stage) : trace_(trace), stage_(stage) {
    if (trace_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) {
      trace_->AddNanos(stage_,
                       static_cast<std::uint64_t>(
                           std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now() - start_)
                               .count()));
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  QueryTrace* trace_;
  Stage stage_;
  std::chrono::steady_clock::time_point start_;
};

/// Deterministic sampling decision: a pure function of (query seed, period),
/// independent of thread/shard interleaving. period 0 disables tracing,
/// period 1 traces everything, period N traces ~1/N of the seed stream.
inline bool SampleTrace(std::uint64_t query_seed, std::uint32_t period) {
  if (period == 0) return false;
  if (period == 1) return true;
  return MixSeed(query_seed, 0x0B5E7B17ULL) % period == 0;
}

}  // namespace obs
}  // namespace rabitq

#endif  // RABITQ_OBS_TRACE_H_
