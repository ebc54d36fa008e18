// Engine-level observability tests: sampled per-stage tracing (sink
// delivery, stage histograms, deterministic sampling across runs) and the
// estimator-health telemetry, cross-checked against an offline replication
// of the re-rank sites in the style of error_bound_property_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <future>
#include <mutex>
#include <vector>

#include "core/estimator.h"
#include "core/query.h"
#include "engine/search_engine.h"
#include "index/ivf.h"
#include "linalg/vector_ops.h"
#include "util/prng.h"

namespace rabitq {
namespace {

constexpr std::size_t kN = 2000;
constexpr std::size_t kDim = 32;
constexpr std::size_t kNumLists = 16;
constexpr std::size_t kNumQueries = 16;
constexpr std::uint64_t kSeedBase = 0xBEEF;

Matrix Clustered(std::size_t n, std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  Matrix centers(8, dim);
  for (std::size_t i = 0; i < centers.size(); ++i) {
    centers.data()[i] = static_cast<float>(rng.Gaussian()) * 4.0f;
  }
  Matrix data(n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = rng.UniformInt(centers.rows());
    for (std::size_t j = 0; j < dim; ++j) {
      data.At(i, j) = centers.At(c, j) + static_cast<float>(rng.Gaussian());
    }
  }
  return data;
}

IvfRabitqIndex BuildIndex(const Matrix& data, Metric metric = Metric::kL2) {
  IvfRabitqIndex index;
  IvfConfig config;
  config.num_lists = kNumLists;
  config.metric = metric;
  EXPECT_TRUE(index.Build(data, config, RabitqConfig{}).ok());
  return index;
}

// One sink capture: the resolved query seed and its per-stage nanoseconds.
struct CapturedTrace {
  std::uint64_t seed = 0;
  std::uint64_t ns[obs::kNumStages] = {};
};

class ObsTracingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = Clustered(kN, kDim, 21);
    queries_ = Clustered(kNumQueries, kDim, 22);
  }

  // Runs every query through `engine` as one SearchBatch with explicit
  // seeds QuerySeed(kSeedBase, i).
  void RunBatch(SearchEngine* engine, const SearchOptions& params) {
    std::vector<SearchRequest> requests(kNumQueries);
    for (std::size_t i = 0; i < kNumQueries; ++i) {
      requests[i].query = queries_.Row(i);
      requests[i].options = params;
      requests[i].options.seed = SearchEngine::QuerySeed(kSeedBase, i);
    }
    std::vector<SearchResponse> responses;
    ASSERT_TRUE(
        engine->SearchBatch(requests.data(), kNumQueries, &responses).ok());
    for (const SearchResponse& response : responses) {
      ASSERT_TRUE(response.status.ok());
    }
  }

  Matrix data_;
  Matrix queries_;
};

TEST_F(ObsTracingTest, SinkReceivesEveryQueryAtPeriodOne) {
  std::mutex mutex;
  std::vector<CapturedTrace> captured;
  EngineConfig config;
  config.num_threads = 2;
  config.trace_sample_period = 1;
  config.trace_sink = [&](std::uint64_t seed, const obs::QueryTrace& trace) {
    std::lock_guard<std::mutex> lock(mutex);
    CapturedTrace ct;
    ct.seed = seed;
    for (int s = 0; s < obs::kNumStages; ++s) {
      ct.ns[s] = trace.Nanos(static_cast<obs::Stage>(s));
    }
    captured.push_back(ct);
  };
  SearchEngine engine(BuildIndex(data_), config);
  SearchOptions params;
  params.k = 10;
  params.nprobe = 8;
  RunBatch(&engine, params);

  ASSERT_EQ(captured.size(), kNumQueries);
  for (std::size_t i = 0; i < kNumQueries; ++i) {
    // The batch fold walks queries in order, so seeds arrive in order.
    EXPECT_EQ(captured[i].seed, SearchEngine::QuerySeed(kSeedBase, i));
    // Every query probes lists and scans codes: those spans measured real
    // work. (Re-rank/merge may legitimately round to ~0 on a tiny index.)
    EXPECT_GT(captured[i].ns[static_cast<int>(obs::Stage::kProbeOrder)], 0u);
    EXPECT_GT(captured[i].ns[static_cast<int>(obs::Stage::kScan)], 0u);
    EXPECT_GT(captured[i].ns[static_cast<int>(obs::Stage::kPreprocess)], 0u);
    // Each probed list's query preparation is its own span, split out of
    // the scan.
    EXPECT_GT(captured[i].ns[static_cast<int>(obs::Stage::kQueryPrepare)],
              0u);
    // SearchBatch goes through the request queue like SubmitAsync: every
    // query records its queue wait (submit -> batch start).
    EXPECT_GT(captured[i].ns[static_cast<int>(obs::Stage::kQueueWait)], 0u);
  }

  const obs::MetricsSnapshot metrics = engine.SnapshotMetrics();
  const obs::MetricValue* traced = metrics.Find("rabitq_traced_queries_total");
  ASSERT_NE(traced, nullptr);
  EXPECT_EQ(traced->u64, kNumQueries);
  const obs::MetricValue* scan_hist = metrics.Find("rabitq_stage_scan_us");
  ASSERT_NE(scan_hist, nullptr);
  EXPECT_EQ(scan_hist->hist.count, kNumQueries);
  EXPECT_GT(scan_hist->hist.sum, 0.0);
  const obs::MetricValue* prepare_hist =
      metrics.Find("rabitq_stage_query_prepare_us");
  ASSERT_NE(prepare_hist, nullptr);
  EXPECT_EQ(prepare_hist->hist.count, kNumQueries);
  EXPECT_GT(prepare_hist->hist.sum, 0.0);
}

TEST_F(ObsTracingTest, AsyncSubmissionRecordsQueueWait) {
  EngineConfig config;
  config.num_threads = 2;
  config.trace_sample_period = 1;
  SearchEngine engine(BuildIndex(data_), config);
  SearchOptions params;
  params.k = 10;
  params.nprobe = 8;
  std::vector<std::future<SearchResponse>> futures;
  for (std::size_t i = 0; i < 32; ++i) {
    SearchRequest request{queries_.Row(i % kNumQueries), params};
    request.options.seed = SearchEngine::QuerySeed(kSeedBase, i);
    futures.push_back(engine.SubmitAsync(request));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().status.ok());

  const obs::MetricsSnapshot metrics = engine.SnapshotMetrics();
  const obs::MetricValue* queue_hist =
      metrics.Find("rabitq_stage_queue_wait_us");
  ASSERT_NE(queue_hist, nullptr);
  // Enqueue -> scheduler pickup is never instantaneous for a whole stream.
  EXPECT_GE(queue_hist->hist.count, 1u);
}

TEST_F(ObsTracingTest, SampledSubsetIsDeterministicAcrossRuns) {
  constexpr std::uint32_t kPeriod = 4;
  SearchOptions params;
  params.k = 10;
  params.nprobe = 8;

  auto run = [&]() {
    std::mutex mutex;
    std::vector<std::uint64_t> seeds;
    EngineConfig config;
    config.num_threads = 2;
    config.trace_sample_period = kPeriod;
    config.trace_sink = [&](std::uint64_t seed, const obs::QueryTrace&) {
      std::lock_guard<std::mutex> lock(mutex);
      seeds.push_back(seed);
    };
    SearchEngine engine(BuildIndex(data_), config);
    RunBatch(&engine, params);
    return seeds;
  };

  const std::vector<std::uint64_t> first = run();
  const std::vector<std::uint64_t> second = run();
  // The sampling decision is a pure function of the query seed, so two
  // identical workloads trace exactly the same subset in the same order.
  EXPECT_EQ(first, second);
  // And it matches the pure predicate directly.
  std::vector<std::uint64_t> expected;
  for (std::size_t i = 0; i < kNumQueries; ++i) {
    const std::uint64_t seed = SearchEngine::QuerySeed(kSeedBase, i);
    if (obs::SampleTrace(seed, kPeriod)) expected.push_back(seed);
  }
  EXPECT_EQ(first, expected);
  EXPECT_LT(first.size(), kNumQueries);  // period 4 must not trace everything
}

// Estimator-health cross-check: serve a workload where EVERY live candidate
// is re-ranked (k > N, so the exact heap never fills and the bound check
// never prunes; the scan's estimates are bit-identical to the single-code
// EstimateDistance, which keeps the offline math identical),
// then replicate the per-candidate accumulation offline exactly like
// error_bound_property_test replicates the bound math. Runs under kL2 AND
// kInnerProduct: negative IP scores are where the tightness gauge used to
// flip direction (dividing the lower bound by a signed exact), so the IP
// leg pins the corrected 1 - (exact - lb)/|exact| normalization.
TEST_F(ObsTracingTest, HealthTelemetryMatchesOfflineReplication) {
  for (const Metric metric : {Metric::kL2, Metric::kInnerProduct}) {
    EngineConfig config;
    config.num_threads = 2;
    config.trace_sample_period = 0;
    SearchEngine engine(BuildIndex(data_, metric), config);
    SearchOptions params;
    params.k = kN + 10;
    params.nprobe = kNumLists;

    RunBatch(&engine, params);
    const EngineStatsSnapshot stats = engine.Stats();

    // Offline replication against the very index the engine serves (no
    // writers exist, so reading internals is within contract).
    const IvfRabitqIndex& index = engine.index().shard(0);
    const RabitqEncoder& encoder = index.encoder();
    const float epsilon0 = encoder.config().epsilon0;
    std::uint64_t candidates = 0, violations = 0, samples = 0;
    double signed_err_sum = 0.0, tightness_sum = 0.0;
    std::vector<float> rotated(encoder.total_bits());
    QuantizedQuery qq;
    std::vector<std::pair<float, std::uint32_t>> order;
    for (std::size_t q = 0; q < kNumQueries; ++q) {
      const float* query = queries_.Row(q);
      const std::uint64_t seed = SearchEngine::QuerySeed(kSeedBase, q);
      const float query_norm_sq =
          metric == Metric::kL2 ? 0.0f : SquaredNorm(query, index.dim());
      RotateQueryOnce(encoder, query, rotated.data());
      index.ProbeOrderInto(query, index.num_lists(), &order);
      for (const auto& [centroid_key, list_id] : order) {
        const auto& ids = index.list_ids(list_id);
        if (ids.empty()) continue;
        Rng list_rng(MixSeed(seed, list_id));
        // q_dist = ||q - c||: under kL2 the probe key is that squared
        // distance; under IP it is a negated dot product, so recompute.
        const float q_dist =
            metric == Metric::kL2
                ? std::sqrt(std::max(0.0f, centroid_key))
                : std::sqrt(std::max(
                      0.0f, L2SqrDistance(query, index.centroids().Row(list_id),
                                          index.dim())));
        ASSERT_TRUE(PrepareQueryFromRotated(
                        encoder, rotated.data(),
                        index.rotated_centroids().Row(list_id), q_dist,
                        &list_rng, &qq, /*query_bits_override=*/0, metric,
                        query_norm_sq)
                        .ok());
        for (std::size_t i = 0; i < ids.size(); ++i) {
          const DistanceEstimate est = EstimateDistance(
              qq, index.list_codes(list_id), i, epsilon0);
          const float exact =
              MetricDistance(metric, index.vector(ids[i]), query, index.dim());
          ++candidates;
          violations += exact < est.lower_bound_sq;
          if (exact != 0.0f) {
            ++samples;
            const double inv = 1.0 / std::abs(static_cast<double>(exact));
            signed_err_sum +=
                (static_cast<double>(est.dist_sq) - exact) * inv;
            tightness_sum +=
                1.0 -
                (exact - static_cast<double>(est.lower_bound_sq)) * inv;
          }
        }
      }
    }

    EXPECT_EQ(stats.candidates_reranked, candidates);
    EXPECT_EQ(stats.rerank_bound_violations, violations);
    EXPECT_EQ(stats.rerank_health_samples, samples);
    ASSERT_GT(samples, 0u);
    const double expected_rate =
        static_cast<double>(violations) / static_cast<double>(candidates);
    EXPECT_NEAR(stats.eps0_violation_rate, expected_rate, 1e-12);
    EXPECT_NEAR(stats.rerank_signed_err_mean,
                signed_err_sum / static_cast<double>(samples),
                1e-9 * std::max(1.0, std::abs(signed_err_sum)));
    EXPECT_NEAR(stats.rerank_bound_tightness_mean,
                tightness_sum / static_cast<double>(samples),
                1e-9 * std::max(1.0, std::abs(tightness_sum)));
    // Sanity on the telemetry itself: at the paper's eps0 = 1.9 the
    // one-sided violation rate tracks P(Z > 1.9) ~ 2.9%; anything past 8%
    // means the live bound is broken (cf. error_bound_property_test).
    EXPECT_LT(stats.eps0_violation_rate, 0.08);
    // Tightness reads "1 = bound hugging the true score" under every
    // metric; overshoot past 1 is capped by the rare bound violation.
    EXPECT_LT(stats.rerank_bound_tightness_mean, 1.05);
    if (metric == Metric::kL2) {
      // L2 scores are positive and the gap is at most the score itself on
      // average, so the historical (0, 1]-ish band still applies.
      EXPECT_GT(stats.rerank_bound_tightness_mean, 0.0);
    }

    // The same numbers flow out through the gauges after SnapshotMetrics.
    const obs::MetricsSnapshot metrics = engine.SnapshotMetrics();
    const obs::MetricValue* rate = metrics.Find("rabitq_eps0_violation_rate");
    ASSERT_NE(rate, nullptr);
    EXPECT_NEAR(rate->value, expected_rate, 1e-12);
    const obs::MetricValue* reranked =
        metrics.Find("rabitq_candidates_reranked_total");
    ASSERT_NE(reranked, nullptr);
    EXPECT_EQ(reranked->u64, candidates);
  }
}

}  // namespace
}  // namespace rabitq
