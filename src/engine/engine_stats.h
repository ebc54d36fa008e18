// Serving-side statistics for SearchEngine. EngineStatsCollector is a thin
// facade over an obs::MetricsRegistry: every Record* call is a handful of
// relaxed striped-atomic adds (no mutex -- the engine-wide stats lock this
// class used to hold is gone), and Snapshot() aggregates the registry into
// the same EngineStatsSnapshot consumers always read. The registry itself is
// owned by the engine and also feeds the per-stage trace histograms and the
// Prometheus/JSON exports (see obs/export.h).

#ifndef RABITQ_ENGINE_ENGINE_STATS_H_
#define RABITQ_ENGINE_ENGINE_STATS_H_

#include <chrono>
#include <cstdint>

#include "index/ivf.h"
#include "obs/metrics.h"

namespace rabitq {

/// Point-in-time view of an engine's counters, safe to copy around.
struct EngineStatsSnapshot {
  std::uint64_t queries = 0;
  std::uint64_t batches = 0;
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t updates = 0;
  std::uint64_t compactions = 0;  // lists compacted, not passes
  std::uint64_t search_errors = 0;
  // Overload / degraded-outcome tallies (the robustness layer): rejected at
  // admission (the submission would pass max_queue_depth), shed unexecuted
  // (deadline expired while queued), out of time mid-scan, responses flagged
  // partial, and per-shard hard failures the scatter-gather merge isolated.
  std::uint64_t queries_rejected = 0;
  std::uint64_t queries_shed = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t partial_responses = 0;
  std::uint64_t shard_failures = 0;
  std::uint64_t epoch = 0;  // index version; bumped by every mutation
  // Index lifecycle gauges sampled at Stats() time (summed over shards).
  std::uint64_t num_shards = 1;
  std::uint64_t live_vectors = 0;
  std::uint64_t tombstones = 0;
  double uptime_seconds = 0.0;     // since collector construction
  double qps = 0.0;                // queries / window_seconds
  double mean_batch_size = 0.0;
  double latency_p50_us = 0.0;     // per-query latency quantiles, submit
  double latency_p99_us = 0.0;     // to completion (queueing included)
  double latency_max_us = 0.0;
  // Aggregated IvfSearchStats over every served query.
  std::uint64_t codes_estimated = 0;
  std::uint64_t candidates_reranked = 0;
  std::uint64_t lists_probed = 0;
  std::uint64_t codes_filtered = 0;  // excluded by per-query IdFilters
  /// Stage-2 multi-bit refinements (bits_per_dim > 1): live,
  /// filter-allowed codes re-estimated from the full B_d-bit code -- the
  /// 1-bit survivors under kErrorBound, every such code under
  /// kFixedCandidates/kNone. 0 on a 1-bit index.
  std::uint64_t codes_refined = 0;

  /// Seconds since construction or the last Reset() -- the rate window the
  /// qps above is computed over, so a post-warmup Reset() yields a QPS
  /// undiluted by build/idle time.
  double window_seconds = 0.0;
  // Estimator-health telemetry aggregated from the kErrorBound re-rank
  // sites (see IvfSearchStats): the live view of the paper's Eq. 16 bound.
  std::uint64_t rerank_bound_violations = 0;
  std::uint64_t rerank_health_samples = 0;
  /// rerank_bound_violations / candidates_reranked; tracks P(Z > eps0).
  double eps0_violation_rate = 0.0;
  /// Mean of (estimate - exact) / exact; ~0 iff the estimator is unbiased.
  double rerank_signed_err_mean = 0.0;
  /// Mean of 1 - (exact - lower_bound) / |exact| in (0, 1]; how tight the
  /// bound runs (1 = bound hugging the exact score).
  double rerank_bound_tightness_mean = 0.0;
};

/// Thread-safe collector owned by a SearchEngine: a facade that resolves
/// its metrics out of the engine's registry once at construction, then
/// records lock-free. Record* calls may race freely; Snapshot() is a
/// relaxed aggregate (counters may be mutually off by in-flight adds).
class EngineStatsCollector {
 public:
  /// `registry` must outlive the collector (the engine owns both).
  explicit EngineStatsCollector(obs::MetricsRegistry* registry);

  /// One executed batch: its size, the per-query latencies (microseconds),
  /// the IvfSearchStats summed over the batch, and how many queries failed.
  void RecordBatch(std::size_t batch_size, const double* latencies_us,
                   const IvfSearchStats& batch_stats, std::size_t errors);
  void RecordInsert() { inserts_->Increment(); }
  void RecordDelete() { deletes_->Increment(); }
  void RecordUpdate() { updates_->Increment(); }
  /// One list compacted (a background pass may record several).
  void RecordCompaction() { compactions_->Increment(); }
  /// A submission of `n` queries refused at admission (max_queue_depth).
  void RecordRejected(std::uint64_t n) { rejected_->Add(n); }
  /// One queued query shed unexecuted (deadline expired while queued).
  void RecordShed() { shed_->Increment(); }
  /// One query that ran out of deadline mid-scan (partial results).
  void RecordDeadlineExceeded() { deadline_exceeded_->Increment(); }
  /// One response flagged partial (deadline and/or shard failure).
  void RecordPartialResponse() { partial_responses_->Increment(); }
  /// `n` shards hard-failed and were excluded from one query's merge.
  void RecordShardFailures(std::uint64_t n) { shard_failures_->Add(n); }

  EngineStatsSnapshot Snapshot() const;
  /// Zeroes every registry metric and restarts the QPS window (the uptime
  /// clock keeps running from construction).
  void Reset() { registry_->Reset(); }

 private:
  obs::MetricsRegistry* registry_;
  std::chrono::steady_clock::time_point created_;
  obs::Counter* queries_;
  obs::Counter* batches_;
  obs::Counter* inserts_;
  obs::Counter* deletes_;
  obs::Counter* updates_;
  obs::Counter* compactions_;
  obs::Counter* search_errors_;
  obs::Counter* rejected_;
  obs::Counter* shed_;
  obs::Counter* deadline_exceeded_;
  obs::Counter* partial_responses_;
  obs::Counter* shard_failures_;
  obs::Counter* codes_estimated_;
  obs::Counter* candidates_reranked_;
  obs::Counter* lists_probed_;
  obs::Counter* codes_filtered_;
  obs::Counter* codes_refined_;
  obs::Counter* bound_violations_;
  obs::Counter* health_samples_;
  obs::FloatCounter* signed_err_sum_;
  obs::FloatCounter* tightness_sum_;
  obs::Histogram* latency_;
};

}  // namespace rabitq

#endif  // RABITQ_ENGINE_ENGINE_STATS_H_
