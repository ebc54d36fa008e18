// Tests for the concurrent query-serving engine: batched execution parity
// with the sequential search path (bit-identical results), multi-threaded
// stress through both SearchBatch and SubmitAsync, concurrent insert+search
// coordination, stats accounting, and error propagation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "engine/search_engine.h"
#include "index/ivf.h"
#include "index/sharded.h"
#include "linalg/vector_ops.h"
#include "util/prng.h"

namespace rabitq {
namespace {

Matrix ClusteredData(std::size_t n, std::size_t dim, std::size_t clusters,
                     std::uint64_t seed) {
  Rng rng(seed);
  Matrix centers(clusters, dim);
  for (std::size_t i = 0; i < centers.size(); ++i) {
    centers.data()[i] = static_cast<float>(rng.Gaussian()) * 8.0f;
  }
  Matrix data(n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = rng.UniformInt(clusters);
    for (std::size_t j = 0; j < dim; ++j) {
      data.At(i, j) = centers.At(c, j) + static_cast<float>(rng.Gaussian());
    }
  }
  return data;
}

IvfRabitqIndex BuildIndex(const Matrix& data, std::size_t num_lists) {
  IvfRabitqIndex index;
  IvfConfig ivf;
  ivf.num_lists = num_lists;
  EXPECT_TRUE(index.Build(data, ivf, RabitqConfig{}).ok());
  return index;
}

// Neighbor lists must agree exactly: same ids, bit-identical distances.
void ExpectSameNeighbors(const std::vector<Neighbor>& a,
                         const std::vector<Neighbor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].second, b[i].second) << "rank " << i;
    EXPECT_EQ(a[i].first, b[i].first) << "rank " << i;
  }
}

class EngineTestFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 2000;
  static constexpr std::size_t kDim = 32;
  static constexpr std::size_t kNumQueries = 48;
  static constexpr std::uint64_t kSeedBase = 42;

  void SetUp() override {
    data_ = ClusteredData(kN, kDim, 12, 7);
    queries_ = ClusteredData(kNumQueries, kDim, 12, 8);
    params_.k = 10;
    params_.nprobe = 8;
  }

  // One request per query, query i seeded QuerySeed(kSeedBase, i): the
  // per-query seed stream of an engine batch with base kSeedBase.
  std::vector<SearchRequest> SeededRequests() const {
    std::vector<SearchRequest> requests(kNumQueries);
    for (std::size_t i = 0; i < kNumQueries; ++i) {
      requests[i] = {queries_.Row(i), params_};
      requests[i].options.seed = SearchEngine::QuerySeed(kSeedBase, i);
    }
    return requests;
  }

  // The sequential reference: the paper's one-query-at-a-time protocol with
  // the same per-query seed stream the engine uses.
  std::vector<std::vector<Neighbor>> SequentialReference(
      const IvfRabitqIndex& index) {
    const std::vector<SearchRequest> requests = SeededRequests();
    std::vector<std::vector<Neighbor>> ref(kNumQueries);
    for (std::size_t i = 0; i < kNumQueries; ++i) {
      SearchResponse response = index.Search(requests[i]);
      EXPECT_TRUE(response.ok());
      ref[i] = std::move(response.neighbors);
    }
    return ref;
  }

  Matrix data_;
  Matrix queries_;
  SearchOptions params_;
};

TEST_F(EngineTestFixture, SearchBatchMatchesSequentialSearch) {
  IvfRabitqIndex index = BuildIndex(data_, 16);
  const auto reference = SequentialReference(index);

  EngineConfig config;
  config.num_threads = 4;
  SearchEngine engine(std::move(index), config);
  const std::vector<SearchRequest> requests = SeededRequests();
  std::vector<SearchResponse> responses;
  ASSERT_TRUE(
      engine.SearchBatch(requests.data(), kNumQueries, &responses).ok());
  ASSERT_EQ(responses.size(), kNumQueries);
  IvfSearchStats agg;
  for (std::size_t i = 0; i < kNumQueries; ++i) {
    ExpectSameNeighbors(responses[i].neighbors, reference[i]);
    agg.Add(responses[i].stats);
  }
  EXPECT_GT(agg.codes_estimated, 0u);
  EXPECT_GT(agg.lists_probed, 0u);
}

TEST_F(EngineTestFixture, BatchSizeOneMatchesSequentialSearch) {
  IvfRabitqIndex index = BuildIndex(data_, 16);
  const auto reference = SequentialReference(index);
  SearchEngine engine(std::move(index));
  for (std::size_t i = 0; i < 5; ++i) {
    // Seed parity: batch index 0 under base 0 carries QuerySeed(0, 0), so
    // the sequential reference searches with that explicit seed.
    SearchRequest request{queries_.Row(i), params_};
    request.options.seed = SearchEngine::QuerySeed(0, 0);
    std::vector<SearchResponse> responses;
    ASSERT_TRUE(engine.SearchBatch(&request, 1, &responses).ok());
    const SearchResponse ref = engine.index().Search(request);
    ASSERT_TRUE(ref.ok());
    ExpectSameNeighbors(responses[0].neighbors, ref.neighbors);
  }
}

// N producer threads x M queries each through the async micro-batching
// scheduler; every result must be bit-identical to the sequential path.
TEST_F(EngineTestFixture, MultiThreadedStressMatchesSequentialSearch) {
  IvfRabitqIndex index = BuildIndex(data_, 16);
  const auto reference = SequentialReference(index);

  EngineConfig config;
  config.num_threads = 4;
  config.max_batch = 8;
  config.batch_linger_us = 100;
  SearchEngine engine(std::move(index), config);

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kRounds = 3;  // every producer submits all queries
  const std::vector<SearchRequest> requests = SeededRequests();
  std::vector<std::vector<std::future<SearchResponse>>> futures(
      kProducers * kRounds);
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        auto& slot = futures[p * kRounds + r];
        slot.reserve(kNumQueries);
        for (std::size_t i = 0; i < kNumQueries; ++i) {
          // Explicit per-query seeds: results must not depend on how the
          // scheduler batches the interleaved submissions.
          slot.push_back(engine.SubmitAsync(requests[i]));
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  for (std::size_t s = 0; s < futures.size(); ++s) {
    for (std::size_t i = 0; i < kNumQueries; ++i) {
      SearchResponse result = futures[s][i].get();
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      ExpectSameNeighbors(result.neighbors, reference[i]);
    }
  }
  const EngineStatsSnapshot stats = engine.Stats();
  EXPECT_EQ(stats.queries, kProducers * kRounds * kNumQueries);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_LE(stats.batches, stats.queries);
}

// Concurrent SearchBatch callers (the sync API) from several threads.
TEST_F(EngineTestFixture, ConcurrentSearchBatchCallers) {
  IvfRabitqIndex index = BuildIndex(data_, 16);
  const auto reference = SequentialReference(index);
  EngineConfig config;
  config.num_threads = 2;
  SearchEngine engine(std::move(index), config);

  constexpr std::size_t kCallers = 4;
  const std::vector<SearchRequest> requests = SeededRequests();
  std::vector<Status> statuses(kCallers);
  std::vector<std::vector<SearchResponse>> responses(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      statuses[c] =
          engine.SearchBatch(requests.data(), kNumQueries, &responses[c]);
    });
  }
  for (auto& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    ASSERT_TRUE(statuses[c].ok()) << statuses[c].ToString();
    for (std::size_t i = 0; i < kNumQueries; ++i) {
      ExpectSameNeighbors(responses[c][i].neighbors, reference[i]);
    }
  }
}

// Insert runs concurrently with a search workload: no crashes, every search
// succeeds, inserts all land, and inserted vectors become findable.
TEST_F(EngineTestFixture, ConcurrentInsertAndSearch) {
  SearchEngine engine(BuildIndex(data_, 16));
  constexpr std::size_t kInserts = 40;
  const Matrix new_vectors = ClusteredData(kInserts, kDim, 12, 99);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> searches_served{0};
  std::vector<std::thread> searchers;
  for (std::size_t t = 0; t < 3; ++t) {
    searchers.emplace_back([&, t] {
      std::size_t i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        SearchResponse result =
            engine.SubmitAsync({queries_.Row(i % kNumQueries), params_}).get();
        ASSERT_TRUE(result.status.ok()) << result.status.ToString();
        ASSERT_FALSE(result.neighbors.empty());
        searches_served.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }

  std::vector<std::uint32_t> inserted_ids(kInserts);
  for (std::size_t i = 0; i < kInserts; ++i) {
    ASSERT_TRUE(engine.Insert(new_vectors.Row(i), &inserted_ids[i]).ok());
  }
  // The inserts can outrun the first async search; keep the searchers alive
  // until at least one result lands so the >0 assertion below is not a race
  // against the micro-batching linger. Deadline-bounded so a searcher
  // regression fails the test instead of hanging it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (searches_served.load(std::memory_order_relaxed) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : searchers) t.join();

  EXPECT_EQ(engine.size(), kN + kInserts);
  EXPECT_EQ(engine.epoch(), kInserts);
  EXPECT_GT(searches_served.load(), 0u);

  // Every inserted vector is now its own nearest neighbor at full probe.
  SearchOptions full = params_;
  full.k = 1;
  full.nprobe = engine.index().num_lists();
  for (std::size_t i = 0; i < kInserts; ++i) {
    SearchResponse result =
        engine.SubmitAsync({new_vectors.Row(i), full}).get();
    ASSERT_TRUE(result.status.ok());
    ASSERT_EQ(result.neighbors.size(), 1u);
    EXPECT_EQ(result.neighbors[0].second, inserted_ids[i]);
    EXPECT_NEAR(result.neighbors[0].first, 0.0f, 1e-5f);
  }
}

TEST_F(EngineTestFixture, StatsAccumulateAndReset) {
  SearchEngine engine(BuildIndex(data_, 16));
  std::vector<SearchRequest> requests(kNumQueries);
  for (std::size_t i = 0; i < kNumQueries; ++i) {
    requests[i] = {queries_.Row(i), params_};
  }
  std::vector<SearchResponse> responses;
  ASSERT_TRUE(
      engine.SearchBatch(requests.data(), kNumQueries, &responses).ok());
  EngineStatsSnapshot stats = engine.Stats();
  EXPECT_EQ(stats.queries, kNumQueries);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.search_errors, 0u);
  EXPECT_GT(stats.codes_estimated, 0u);
  EXPECT_GT(stats.latency_p50_us, 0.0);
  EXPECT_GE(stats.latency_p99_us, stats.latency_p50_us);
  EXPECT_GT(stats.qps, 0.0);

  engine.ResetStats();
  stats = engine.Stats();
  EXPECT_EQ(stats.queries, 0u);
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.latency_p50_us, 0.0);
}

TEST_F(EngineTestFixture, PerQueryErrorsPropagateWithoutPoisoningBatch) {
  SearchEngine engine(BuildIndex(data_, 16));
  SearchOptions bad = params_;
  bad.k = 0;  // rejected by the search path
  std::future<SearchResponse> bad_future =
      engine.SubmitAsync({queries_.Row(0), bad});
  std::future<SearchResponse> good_future =
      engine.SubmitAsync({queries_.Row(1), params_});
  EXPECT_FALSE(bad_future.get().status.ok());
  SearchResponse good = good_future.get();
  EXPECT_TRUE(good.status.ok()) << good.status.ToString();
  EXPECT_FALSE(good.neighbors.empty());
  EXPECT_EQ(engine.Stats().search_errors, 1u);

  // Sync batch: first error is returned, healthy queries still answered.
  const SearchRequest bad_batch[] = {{queries_.Row(0), bad},
                                     {queries_.Row(1), bad}};
  std::vector<SearchResponse> responses;
  EXPECT_FALSE(engine.SearchBatch(bad_batch, 2, &responses).ok());
  ASSERT_EQ(responses.size(), 2u);
}

TEST(EngineTest, LatencyHistogramQuantiles) {
  LatencyHistogram hist;
  for (int i = 1; i <= 1000; ++i) hist.Record(static_cast<double>(i));
  EXPECT_EQ(hist.count(), 1000u);
  EXPECT_EQ(hist.max_micros(), 1000.0);
  // Log-bucketed quantiles carry <= ~19% bucket error plus the bucket-edge
  // overestimate; accept a generous band around the exact quantiles.
  EXPECT_GT(hist.Quantile(0.5), 350.0);
  EXPECT_LT(hist.Quantile(0.5), 800.0);
  EXPECT_GT(hist.Quantile(0.99), 800.0);
  EXPECT_LE(hist.Quantile(0.99), 1000.0);
  // Degenerate q resolves to the first occupied bucket's upper edge.
  EXPECT_GE(hist.Quantile(0.0), 1.0);
  EXPECT_LE(hist.Quantile(0.0), 2.0);
}

// An engine over an unbuilt (zero-shard) index constructs cleanly and
// refuses every search with kFailedPrecondition from the scheduler's
// unbuilt-index branch; Drain still returns.
TEST(EngineTest, UnbuiltIndexFailsSearchesAndDrains) {
  SearchEngine engine{ShardedIndex{}};
  EXPECT_EQ(engine.num_shards(), 0u);
  EXPECT_EQ(engine.dim(), 0u);
  EXPECT_EQ(engine.bits_per_dim(), 1u);
  const float query[1] = {0.0f};
  SearchOptions params;
  params.k = 1;
  EXPECT_EQ(engine.Search({query, params}).status.code(),
            StatusCode::kFailedPrecondition);
  const SearchRequest batch[] = {{query, params}, {query, params}};
  std::vector<SearchResponse> responses;
  EXPECT_EQ(engine.SearchBatch(batch, 2, &responses).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_EQ(responses.size(), 2u);
  for (const SearchResponse& response : responses) {
    EXPECT_EQ(response.status.code(), StatusCode::kFailedPrecondition);
  }
  engine.Drain();
}

TEST(EngineTest, QuerySeedStreamIsStable) {
  // The parity contract freezes the derivation: same (base, ticket) ->
  // same seed, distinct tickets -> distinct seeds.
  EXPECT_EQ(SearchEngine::QuerySeed(1, 0), SearchEngine::QuerySeed(1, 0));
  EXPECT_NE(SearchEngine::QuerySeed(1, 0), SearchEngine::QuerySeed(1, 1));
  EXPECT_NE(SearchEngine::QuerySeed(1, 0), SearchEngine::QuerySeed(2, 0));
}

}  // namespace
}  // namespace rabitq
