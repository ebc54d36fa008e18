// Lock-free observability primitives for the serving engine. The hot path
// (one RecordBatch per executed batch, one span add per traced stage) does
// plain relaxed atomic adds into per-thread striped slots; aggregation
// happens only at Snapshot() time. Nothing here takes a lock after
// registration, so instrumented code keeps its concurrency profile -- the
// engine-wide stats mutex this module replaces is gone.
//
// Layering: obs sits next to util (no index/engine dependencies); the
// engine's EngineStatsCollector is a thin facade over a MetricsRegistry.
//
// Primitives:
//   * Counter       monotonic u64, striped over cache-line-aligned slots
//   * FloatCounter  monotonic double sum (CAS-add), striped
//   * Gauge         last-write-wins double
//   * Histogram     log-bucketed, striped
//
// Consistency: a snapshot sums stripes with relaxed loads, so it is not a
// linearizable cut across metrics -- counters may be mutually off by the
// handful of increments in flight. That is the usual contract for telemetry
// and the price of a zero-coordination fast path. Reset() concurrent with
// writers may likewise lose in-flight increments.

#ifndef RABITQ_OBS_METRICS_H_
#define RABITQ_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace rabitq {
namespace obs {

// ---------------------------------------------------------------------------
// Geometric bucket layout: bucket i covers [2^(i/4), 2^((i+1)/4)) value
// units (~19% relative resolution); 128 buckets reach ~75 minutes when the
// unit is microseconds. Values below 1 land in bucket 0, whose lower edge
// is treated as 0 for interpolation.
// ---------------------------------------------------------------------------

inline constexpr int kNumBuckets = 128;

/// floor(4 * log2(value)) clamped to the table; sub-unit values -> bucket 0.
int BucketIndex(double value);
/// Lower edge of bucket i (0 for bucket 0, else 2^(i/4)).
double BucketLower(int i);
/// Upper edge of bucket i: 2^((i+1)/4).
double BucketUpper(int i);

/// Interpolated quantile over a raw bucket array: walks to the bucket
/// holding the target rank, then interpolates linearly WITHIN the bucket by
/// the fraction of its population at or below the rank -- fixing the
/// up-to-19% systematic overestimate of reporting the upper edge. Clamped
/// to `max_value` (the largest recorded sample). q in [0, 1]; 0 when empty.
double BucketQuantile(const std::uint64_t* buckets, std::uint64_t count,
                      double max_value, double q);

// ---------------------------------------------------------------------------
// Striping: each writer thread picks a fixed slot (round-robin over the
// thread-local registration order) and only ever RMWs that slot, so two
// hot threads do not ping-pong one cache line. Must be a power of two.
// ---------------------------------------------------------------------------

inline constexpr std::size_t kStripes = 16;

/// Stable per-thread stripe index in [0, kStripes).
std::size_t ThreadStripe();

/// Monotonic counter. Add() is wait-free (one relaxed fetch_add on the
/// caller's stripe); Value() sums the stripes.
class Counter {
 public:
  void Add(std::uint64_t n) {
    slots_[ThreadStripe()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  std::uint64_t Value() const;
  void Reset();

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  Slot slots_[kStripes];
};

/// Monotonic double accumulator (for sums of relative errors etc.).
/// Add() is lock-free (relaxed CAS loop on the caller's stripe).
class FloatCounter {
 public:
  void Add(double d) {
    std::atomic<double>& a = slots_[ThreadStripe()].v;
    double cur = a.load(std::memory_order_relaxed);
    while (!a.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  double Value() const;
  void Reset();

 private:
  struct alignas(64) Slot {
    std::atomic<double> v{0.0};
  };
  Slot slots_[kStripes];
};

/// Last-write-wins double (lifecycle gauges: live vectors, epoch, ...).
class Gauge {
 public:
  void Set(double d) { value_.store(d, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Aggregated view of one histogram, detached from its atomics: safe to
/// copy, merge and query after the snapshot.
struct HistogramSnapshot {
  std::uint64_t buckets[kNumBuckets] = {};
  std::uint64_t count = 0;
  double sum = 0.0;
  double max = 0.0;

  double Quantile(double q) const {
    return BucketQuantile(buckets, count, max, q);
  }
  double Mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
  /// Bucket-wise merge; associative and commutative over integral-valued
  /// recordings (double sums reassociate otherwise).
  void Merge(const HistogramSnapshot& other);
};

/// Log-bucketed histogram with striped slots. Record() is lock-free: one
/// relaxed fetch_add on the bucket + count, a CAS-add on the sum and a
/// CAS-max, all on the caller's stripe.
class Histogram {
 public:
  void Record(double value);
  HistogramSnapshot Snapshot() const;
  void Reset();

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> buckets[kNumBuckets] = {};
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> max{0.0};
  };
  Slot slots_[kStripes];
};

enum class MetricKind : std::uint8_t {
  kCounter,
  kFloatCounter,
  kGauge,
  kHistogram,
};

/// One metric's aggregated value at snapshot time.
struct MetricValue {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t u64 = 0;           // kCounter
  double value = 0.0;              // kCounter (as double) / kFloatCounter / kGauge
  HistogramSnapshot hist;          // kHistogram
};

/// Point-in-time aggregation of a whole registry.
struct MetricsSnapshot {
  /// Seconds since the registry was created or last Reset() -- the rate
  /// window (e.g. qps = queries / window_seconds).
  double window_seconds = 0.0;
  std::vector<MetricValue> metrics;  // registration order

  const MetricValue* Find(const std::string& name) const;
};

/// Owns metrics by name. Registration (Get*) takes a mutex and returns a
/// pointer stable for the registry's lifetime -- instrumented code resolves
/// its metrics once and then never touches the registry lock again. Getting
/// an existing name returns the SAME object; a kind mismatch returns null.
class MetricsRegistry {
 public:
  MetricsRegistry();

  Counter* GetCounter(const std::string& name, const std::string& help = "");
  FloatCounter* GetFloatCounter(const std::string& name,
                                const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const std::string& help = "");
  Histogram* GetHistogram(const std::string& name,
                          const std::string& help = "");

  MetricsSnapshot Snapshot() const;
  /// Zeroes every metric and restarts the rate window. Increments in flight
  /// on other threads may survive the reset (telemetry contract).
  void Reset();
  /// Seconds since construction or the last Reset().
  double WindowSeconds() const;

 private:
  struct Entry {
    std::string name;
    std::string help;
    MetricKind kind;
    // Exactly one of these is non-null, matching `kind`.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<FloatCounter> float_counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(const std::string& name, const std::string& help,
                      MetricKind kind);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;  // registration order
  std::unordered_map<std::string, Entry*> by_name_;
  std::atomic<std::chrono::steady_clock::time_point::rep> window_start_;
};

}  // namespace obs
}  // namespace rabitq

#endif  // RABITQ_OBS_METRICS_H_
