// Shared pieces of the benchmark driver: workload description, seeded data
// generation, the client-side model of the live set, percentile rules,
// spans and the metric table the driver prints.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "index/brute_force.h"
#include "index/search_types.h"
#include "linalg/matrix.h"
#include "linalg/vector_ops.h"
#include "util/prng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// A failed or refused request counts as missing every latency limit.
inline constexpr double kFailedLatency = std::numeric_limits<double>::infinity();

/// Operation shares of a traffic mix; they sum to 1.
struct Mix {
  double search = 1.0;
  double add = 0.0;
  double update = 0.0;
  double del = 0.0;
};

enum class Op : std::uint8_t { kSearch, kAdd, kUpdate, kDelete };

inline Op DrawOp(const Mix& mix, rabitq::Rng* rng) {
  const double u = rng->UniformDouble();
  if (u < mix.search) return Op::kSearch;
  if (u < mix.search + mix.add) return Op::kAdd;
  if (u < mix.search + mix.add + mix.update) return Op::kUpdate;
  return Op::kDelete;
}

/// Everything the driver needs to know about one workload. The fields
/// workloads differ in come from the command line (perfbench/run.py passes
/// perfbench/workloads.json through); the rest are shared constants.
struct Workload {
  std::string name;
  std::size_t n = 20000;
  std::size_t lists = 256;
  std::size_t bits = 1;
  std::size_t shards = 1;
  std::size_t nprobe = 32;
  double open_rate = 500.0;  // requests per second in the open-loop phase
  std::size_t frame = 1;     // queries per closed-loop search frame
  Mix mix;                   // both phases
  std::size_t setups = 3;    // timed CreateCollection repetitions (median)
  double recall_floor = 0.0;

  static constexpr std::size_t components = 100;  // Gaussian mixture
  static constexpr std::size_t dim = 96;
  static constexpr std::size_t k = 10;
  static constexpr double sigma = 1.0;  // within-component std deviation
  static constexpr std::size_t hot_components = 4;  // writes target these
  static constexpr std::size_t num_queries = 1000;
  static constexpr std::size_t recall_queries = 200;
  static constexpr std::size_t gate_queries = 50;
  static constexpr std::size_t replay_queries = 1000;

  bool has_writes() const { return mix.search < 1.0; }
};

/// Seeded Gaussian-mixture data: clustered like real embeddings, so IVF
/// probing behaves as it would in practice. The server only ever sees the
/// vectors this produces.
class Mixture {
 public:
  Mixture(std::size_t components, std::size_t dim, double sigma,
          std::uint64_t seed)
      : centers_(components, dim), sigma_(sigma) {
    rabitq::Rng rng(rabitq::MixSeed(seed, 0xC3A7E5ULL));
    for (std::size_t i = 0; i < centers_.size(); ++i) {
      centers_.data()[i] = static_cast<float>(rng.Gaussian());
    }
  }

  std::size_t components() const { return centers_.rows(); }
  std::size_t dim() const { return centers_.cols(); }

  void Sample(std::size_t component, rabitq::Rng* rng, float* out) const {
    const float* c = centers_.Row(component);
    for (std::size_t d = 0; d < dim(); ++d) {
      out[d] = c[d] + static_cast<float>(sigma_ * rng->Gaussian());
    }
  }

  /// rows x dim matrix of samples; `component_of` (optional) receives each
  /// row's component.
  rabitq::Matrix Draw(std::size_t rows, rabitq::Rng* rng,
                      std::vector<std::uint32_t>* component_of) const {
    rabitq::Matrix m(rows, dim());
    if (component_of != nullptr) component_of->resize(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      const auto comp = static_cast<std::uint32_t>(rng->UniformInt(components()));
      if (component_of != nullptr) (*component_of)[r] = comp;
      Sample(comp, rng, m.Row(r));
    }
    return m;
  }

 private:
  rabitq::Matrix centers_;
  double sigma_;
};

/// The client-side model of the server's live set: every acknowledged
/// write is applied here, so exact answers can be computed after the run.
class LiveSet {
 public:
  explicit LiveSet(const rabitq::Matrix& base)
      : dim_(base.cols()),
        rows_(base.data(), base.data() + base.size()),
        alive_(base.rows(), 1),
        live_(base.rows()) {}

  void Set(std::uint32_t id, const float* vec) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (id >= alive_.size()) {
      alive_.resize(id + 1, 0);
      rows_.resize(alive_.size() * dim_, 0.0f);
    }
    std::copy(vec, vec + dim_, rows_.begin() + std::size_t{id} * dim_);
    if (alive_[id] == 0) ++live_;
    alive_[id] = 1;
  }

  void Erase(std::uint32_t id) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (id < alive_.size() && alive_[id] != 0) {
      alive_[id] = 0;
      --live_;
    }
  }

  std::size_t live() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return live_;
  }

  /// Exact top-k over the live set with the library's distance and tie
  /// order (TopKHeap), so it is comparable element for element with an
  /// exhaustive index search. Not safe against concurrent writers.
  std::vector<rabitq::Neighbor> ExactTopK(const float* query,
                                          std::size_t k) const {
    rabitq::TopKHeap heap(k);
    for (std::size_t id = 0; id < alive_.size(); ++id) {
      if (alive_[id] == 0) continue;
      heap.Push(rabitq::L2SqrDistance(rows_.data() + id * dim_, query, dim_),
                static_cast<std::uint32_t>(id));
    }
    return heap.ExtractSorted();
  }

 private:
  std::size_t dim_;
  mutable std::mutex mutex_;
  std::vector<float> rows_;
  std::vector<std::uint8_t> alive_;
  std::size_t live_ = 0;
};

/// Latency sample set summarized by the benchmark's percentile rule: a
/// percentile is reported only with at least ten samples beyond it.
struct Percentile {
  double value = 0.0;
  double q = 0.0;  // the percentile actually reported (<= the requested one)
  std::size_t n = 0;
};

inline Percentile SupportedPercentile(std::vector<double> samples, double q) {
  Percentile p;
  p.n = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  // Nearest rank; step down to the highest percentile that still leaves at
  // least ten samples beyond it (the median needs only one sample).
  for (const double candidate : {0.99, 0.95, 0.9, 0.5}) {
    if (candidate > q) continue;
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(candidate * static_cast<double>(samples.size())));
    const std::size_t idx = rank == 0 ? 0 : rank - 1;
    if (candidate <= 0.5 || samples.size() - (idx + 1) >= 10) {
      p.q = candidate;
      p.value = samples[idx];
      return p;
    }
  }
  return p;
}

inline double Median(std::vector<double> samples) {
  return SupportedPercentile(std::move(samples), 0.5).value;
}

/// One printed metric: value, unit, sample count, and how it was reported.
struct MetricOut {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;
  std::string note;
};

/// One span of the traced run. Spans of one query share `qid`; the parent
/// link is logical (the layer the span's call sits under), resolved by
/// layer name when the trace is written.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t qid = 0;
};

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}
  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  void Add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::uint32_t qid) {
    spans_.push_back(Span{name, start_ns, end_ns, qid});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Deterministic per-query search seed (explicit seeds make every search a
/// pure function of the index and the query, on the wire and in-process).
inline std::uint64_t QuerySeed(std::uint64_t run_seed, std::uint64_t i) {
  return rabitq::MixSeed(run_seed ^ 0x5EA4C4ULL, i);
}

inline rabitq::SearchOptions BaseOptions(const Workload& w) {
  rabitq::SearchOptions o;
  o.k = w.k;
  o.nprobe = w.nprobe;
  return o;
}

/// The workload's options for query row `q`, with its deterministic seed.
inline rabitq::SearchOptions SeededOptions(const Workload& w,
                                           std::uint64_t run_seed,
                                           std::size_t q) {
  rabitq::SearchOptions o = BaseOptions(w);
  o.seed = QuerySeed(run_seed, q);
  return o;
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
