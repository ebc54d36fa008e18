// Tests for the IVF-RaBitQ index: construction invariants, recall with the
// error-bound re-ranking policy (Section 4), policy comparisons, stats, and
// the batch/single estimator toggle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>

#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "index/ivf.h"
#include "linalg/vector_ops.h"
#include "util/prng.h"
#include "scan_reference.h"

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

class IvfTestFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 4000;
  static constexpr std::size_t kDim = 48;

  void SetUp() override {
    data_ = ClusteredData(kN, kDim, 20, 7);
    IvfConfig ivf;
    ivf.num_lists = 32;
    RabitqConfig rabitq;
    ASSERT_TRUE(index_.Build(data_, ivf, rabitq).ok());
    queries_ = ClusteredData(20, kDim, 20, 8);
    ASSERT_TRUE(ComputeGroundTruth(data_, queries_, 10, &gt_).ok());
  }

  Matrix data_;
  Matrix queries_;
  GroundTruth gt_;
  IvfRabitqIndex index_;
};

TEST_F(IvfTestFixture, EveryVectorAssignedToExactlyOneList) {
  std::vector<int> seen(kN, 0);
  std::size_t total = 0;
  for (std::size_t l = 0; l < index_.num_lists(); ++l) {
    EXPECT_EQ(index_.list_ids(l).size(), index_.list_codes(l).size());
    for (const std::uint32_t id : index_.list_ids(l)) {
      ASSERT_LT(id, kN);
      ++seen[id];
      ++total;
    }
  }
  EXPECT_EQ(total, kN);
  for (const int count : seen) EXPECT_EQ(count, 1);
}

TEST_F(IvfTestFixture, ProbeOrderSortsByCentroidDistance) {
  std::vector<std::pair<float, std::uint32_t>> order;
  index_.ProbeOrderInto(queries_.Row(0), index_.num_lists(), &order);
  ASSERT_EQ(order.size(), index_.num_lists());
  float prev = -1.0f;
  for (const auto& [key, l] : order) {
    const float d =
        L2SqrDistance(queries_.Row(0), index_.centroids().Row(l), kDim);
    EXPECT_EQ(key, d);
    EXPECT_GE(d, prev);
    prev = d;
  }
}

TEST_F(IvfTestFixture, PartialProbeOrderMatchesFullSortPrefix) {
  // The nprobe-aware selection (nth_element + prefix sort) must produce
  // exactly the full sort's first nprobe entries -- this is what keeps the
  // search path bit-identical after the partial-sort optimization.
  for (std::size_t q = 0; q < 4; ++q) {
    std::vector<std::pair<float, std::uint32_t>> full;
    index_.ProbeOrderInto(queries_.Row(q), index_.num_lists(), &full);
    for (const std::size_t nprobe : {std::size_t{1}, std::size_t{5},
                                     std::size_t{16}, index_.num_lists(),
                                     index_.num_lists() + 10}) {
      std::vector<std::pair<float, std::uint32_t>> partial;
      index_.ProbeOrderInto(queries_.Row(q), nprobe, &partial);
      ASSERT_EQ(partial.size(), full.size());
      const std::size_t prefix = std::min(nprobe, full.size());
      for (std::size_t i = 0; i < prefix; ++i) {
        EXPECT_EQ(partial[i], full[i]) << "nprobe " << nprobe << " pos " << i;
      }
    }
  }
}

TEST_F(IvfTestFixture, FullProbeErrorBoundRecallIsNearPerfect) {
  // Probing every list with error-bound re-ranking must find essentially
  // all true neighbors (misses only when the bound fails, prob ~ 1e-3).
  Rng rng(1);
  SearchOptions params;
  params.k = 10;
  params.nprobe = index_.num_lists();
  double recall = 0.0;
  for (std::size_t q = 0; q < queries_.rows(); ++q) {
    params.seed = rng.NextU64();
    const SearchResponse response = index_.Search({queries_.Row(q), params});
    ASSERT_TRUE(response.ok());
    recall += RecallAtK(gt_, q, response.neighbors, 10);
  }
  EXPECT_GE(recall / queries_.rows(), 0.99);
}

TEST_F(IvfTestFixture, ExactDistancesReturnedAfterRerank) {
  Rng rng(2);
  SearchOptions params;
  params.k = 5;
  params.nprobe = index_.num_lists();
  params.seed = rng.NextU64();
  const SearchResponse response = index_.Search({queries_.Row(0), params});
  ASSERT_TRUE(response.ok());
  const std::vector<Neighbor>& result = response.neighbors;
  for (const auto& [dist, id] : result) {
    EXPECT_FLOAT_EQ(dist,
                    L2SqrDistance(queries_.Row(0), data_.Row(id), kDim));
  }
  // Sorted ascending.
  for (std::size_t i = 1; i < result.size(); ++i) {
    EXPECT_LE(result[i - 1].first, result[i].first);
  }
}

TEST_F(IvfTestFixture, ErrorBoundPrunesMostCandidates) {
  Rng rng(3);
  SearchOptions params;
  params.k = 10;
  params.nprobe = index_.num_lists();
  params.seed = rng.NextU64();
  const SearchResponse response = index_.Search({queries_.Row(0), params});
  ASSERT_TRUE(response.ok());
  const IvfSearchStats& stats = response.stats;
  EXPECT_EQ(stats.codes_estimated, kN);
  EXPECT_LT(stats.candidates_reranked, kN / 2)
      << "the bound should prune the bulk of the candidates";
  EXPECT_GE(stats.candidates_reranked, params.k);
}

// The search (fast-scan LUT sums, AVX2 assembly) against the scalar replay
// of its scan with bitwise sums (tests/scan_reference.h).
TEST_F(IvfTestFixture, SingleAndBatchEstimatorsGiveSameResults) {
  SearchOptions batch_params;
  batch_params.k = 10;
  batch_params.nprobe = 8;
  for (std::size_t q = 0; q < 5; ++q) {
    // Same seed -> identical randomized query quantization.
    Rng rng(100 + q);
    batch_params.seed = rng.NextU64();
    const SearchResponse batch_response =
        index_.Search({queries_.Row(q), batch_params});
    const SearchResponse single_response =
        ReferenceSearch(index_, queries_.Row(q), batch_params);
    ASSERT_TRUE(batch_response.ok());
    ASSERT_TRUE(single_response.ok());
    const std::vector<Neighbor>& batch_result = batch_response.neighbors;
    const std::vector<Neighbor>& single_result = single_response.neighbors;
    ASSERT_EQ(batch_result.size(), single_result.size());
    for (std::size_t i = 0; i < batch_result.size(); ++i) {
      EXPECT_EQ(batch_result[i].second, single_result[i].second);
      EXPECT_FLOAT_EQ(batch_result[i].first, single_result[i].first);
    }
  }
}

TEST_F(IvfTestFixture, FixedCandidatePolicyWorksAndObeysBudget) {
  Rng rng(4);
  SearchOptions params;
  params.k = 10;
  params.nprobe = index_.num_lists();
  params.policy = RerankPolicy::kFixedCandidates;
  params.rerank_candidates = 200;
  double recall = 0.0;
  for (std::size_t q = 0; q < queries_.rows(); ++q) {
    params.seed = rng.NextU64();
    const SearchResponse response = index_.Search({queries_.Row(q), params});
    ASSERT_TRUE(response.ok());
    EXPECT_LE(response.stats.candidates_reranked, 200u);
    recall += RecallAtK(gt_, q, response.neighbors, 10);
  }
  EXPECT_GE(recall / queries_.rows(), 0.9);
}

TEST_F(IvfTestFixture, NoRerankPolicyReturnsEstimates) {
  Rng rng(5);
  SearchOptions params;
  params.k = 10;
  params.nprobe = index_.num_lists();
  params.policy = RerankPolicy::kNone;
  params.seed = rng.NextU64();
  const SearchResponse response = index_.Search({queries_.Row(0), params});
  ASSERT_TRUE(response.ok());
  const std::vector<Neighbor>& result = response.neighbors;
  ASSERT_EQ(result.size(), 10u);
  // Estimated distances are not exact, but ids should still be decent:
  // recall without rerank is lower yet far from random.
  const double recall = RecallAtK(gt_, 0, result, 10);
  EXPECT_GE(recall, 0.3);
}

TEST_F(IvfTestFixture, SmallerEpsilonLowersRecallFloor) {
  // eps0 = 0 prunes aggressively (bound = estimate): recall drops relative
  // to eps0 = 1.9 (Fig. 5's left edge).
  SearchOptions tight;
  tight.k = 10;
  tight.nprobe = index_.num_lists();
  tight.epsilon0_override = 0.0f;
  SearchOptions loose = tight;
  loose.epsilon0_override = 1.9f;
  double recall_tight = 0.0, recall_loose = 0.0;
  for (std::size_t q = 0; q < queries_.rows(); ++q) {
    Rng rng_a(200 + q), rng_b(200 + q);
    tight.seed = rng_a.NextU64();
    loose.seed = rng_b.NextU64();
    const SearchResponse rt = index_.Search({queries_.Row(q), tight});
    const SearchResponse rl = index_.Search({queries_.Row(q), loose});
    ASSERT_TRUE(rt.ok());
    ASSERT_TRUE(rl.ok());
    recall_tight += RecallAtK(gt_, q, rt.neighbors, 10);
    recall_loose += RecallAtK(gt_, q, rl.neighbors, 10);
  }
  EXPECT_GT(recall_loose, recall_tight);
}

TEST(IvfTest, RejectsBadArguments) {
  IvfRabitqIndex index;
  EXPECT_FALSE(index.Build(Matrix(), IvfConfig{}, RabitqConfig{}).ok());

  Matrix data = ClusteredData(100, 16, 4, 1);
  IvfConfig ivf;
  ivf.num_lists = 4;
  ASSERT_TRUE(index.Build(data, ivf, RabitqConfig{}).ok());
  SearchOptions params;
  params.k = 0;
  EXPECT_FALSE(index.Search({data.Row(0), params}).ok());
  params.k = 5;
  EXPECT_FALSE(index.Search({nullptr, params}).ok());
}

// A NaN or +/-inf coordinate is rejected at every ingest and query entry
// point, and the index is left as it was: a non-finite vector would
// otherwise surface as a NaN-distance neighbor of ordinary queries. Huge
// but finite values stay accepted.
TEST(IvfTest, RejectsNonFiniteVectors) {
  constexpr std::size_t kDim = 16;
  const float kBad[] = {std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity()};
  const Matrix data = ClusteredData(200, kDim, 4, 1);
  IvfConfig ivf;
  ivf.num_lists = 4;
  for (const float bad : kBad) {
    Matrix poisoned = data;
    poisoned.At(17, 3) = bad;
    IvfRabitqIndex index;
    EXPECT_EQ(index.Build(poisoned, ivf, RabitqConfig{}).code(),
              StatusCode::kInvalidArgument);
    Matrix centroids(1, kDim);
    std::copy_n(data.Row(0), kDim, centroids.Row(0));
    const std::vector<std::uint32_t> assignments(data.rows(), 0);
    EXPECT_EQ(index
                  .BuildFromClustering(poisoned, std::move(centroids),
                                       assignments.data(), RabitqConfig{})
                  .code(),
              StatusCode::kInvalidArgument);
  }

  IvfRabitqIndex index;
  ASSERT_TRUE(index.Build(data, ivf, RabitqConfig{}).ok());
  SearchOptions params;
  params.k = 10;
  params.nprobe = ivf.num_lists;
  params.seed = 3;
  for (const float bad : kBad) {
    std::vector<float> vec(data.Row(5), data.Row(5) + kDim);
    vec[7] = bad;
    EXPECT_EQ(index.Add(vec.data()).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(index.Update(5, vec.data()).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(index.Search({vec.data(), params}).status.code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(index.size(), data.rows());
  EXPECT_EQ(index.live_size(), data.rows());
  EXPECT_EQ(index.num_tombstones(), 0u);
  const SearchResponse response = index.Search({data.Row(5), params});
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.neighbors.size(), params.k);
  for (const Neighbor& nb : response.neighbors) {
    EXPECT_TRUE(std::isfinite(nb.first)) << "id " << nb.second;
  }

  const std::vector<float> huge(kDim, 1e30f);
  EXPECT_TRUE(index.Add(huge.data()).ok());
  EXPECT_TRUE(index.Update(5, huge.data()).ok());
  EXPECT_TRUE(index.Search({huge.data(), params}).ok());
}

TEST(IvfTest, MoreListsThanPointsClamps) {
  Matrix data = ClusteredData(10, 8, 2, 3);
  IvfRabitqIndex index;
  IvfConfig ivf;
  ivf.num_lists = 64;
  ASSERT_TRUE(index.Build(data, ivf, RabitqConfig{}).ok());
  EXPECT_LE(index.num_lists(), 10u);
  Rng rng(1);
  SearchOptions params;
  params.k = 3;
  params.nprobe = index.num_lists();
  params.seed = rng.NextU64();
  const SearchResponse response = index.Search({data.Row(0), params});
  ASSERT_TRUE(response.ok());
  const std::vector<Neighbor>& out = response.neighbors;
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].second, 0u);  // the point itself
  EXPECT_NEAR(out[0].first, 0.0f, 1e-5f);
}

}  // namespace
}  // namespace rabitq
