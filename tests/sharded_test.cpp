// Scatter-gather sharding tests: bit-identical result parity between a
// ShardedIndex (any shard count, shared clustering) and the single-shard
// IvfRabitqIndex, exact-mode agreement with the brute-force oracle under
// deletes and duplicate-distance ties, engine SearchBatch parity, round-
// robin id placement, and the sharded snapshot (manifest + per-shard blob)
// round trip including single-file v1/v2 fallback. The shard count of the
// "sharded" variants honors the SHARDS env var so the CI matrix can sweep
// it (SHARDS=1 and SHARDS=4).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "core/query.h"
#include "engine/search_engine.h"
#include "index/brute_force.h"
#include "index/ivf.h"
#include "index/sharded.h"
#include "linalg/vector_ops.h"
#include "util/prng.h"

namespace rabitq {
namespace {

std::size_t EnvShards(std::size_t fallback) {
  const char* value = std::getenv("SHARDS");
  if (value == nullptr) return fallback;
  const long parsed = std::atol(value);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

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

// Data with exact duplicate rows, so distance ties are guaranteed: the last
// `dupes` rows copy the first `dupes` rows verbatim.
Matrix DataWithDuplicates(std::size_t n, std::size_t dim, std::size_t dupes,
                          std::uint64_t seed) {
  Matrix data = ClusteredData(n, dim, 10, seed);
  for (std::size_t i = 0; i < dupes; ++i) {
    std::copy_n(data.Row(i), dim, data.Row(n - dupes + i));
  }
  return data;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& a,
                         const std::vector<Neighbor>& b,
                         const char* what = "") {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].second, b[i].second) << what << " rank " << i;
    EXPECT_EQ(a[i].first, b[i].first) << what << " rank " << i;
  }
}

// Exact top-k over the live rows, with the library's (dist, id) tie order.
std::vector<Neighbor> BruteForceLive(const Matrix& data, const float* query,
                                     std::size_t k,
                                     const std::vector<bool>& alive) {
  TopKHeap heap(k);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    if (!alive[i]) continue;
    heap.Push(L2SqrDistance(data.Row(i), query, data.cols()),
              static_cast<std::uint32_t>(i));
  }
  return heap.ExtractSorted();
}

class ShardedTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 700;
  static constexpr std::size_t kDim = 24;
  static constexpr std::size_t kLists = 12;
  static constexpr std::size_t kDupes = 60;
  static constexpr std::size_t kNumQueries = 16;

  void SetUp() override {
    data_ = DataWithDuplicates(kN, kDim, kDupes, 31);
    queries_ = ClusteredData(kNumQueries, kDim, 10, 32);
  }

  ShardedIndex BuildSharded(std::size_t num_shards,
                            ShardClustering clustering, const Matrix& data,
                            std::size_t bits_per_dim = 1,
                            int query_bits = RabitqConfig{}.query_bits) {
    ShardedIndex index;
    ShardedConfig config;
    config.num_shards = num_shards;
    config.clustering = clustering;
    config.ivf.num_lists = kLists;
    config.rabitq.bits_per_dim = bits_per_dim;
    config.rabitq.query_bits = query_bits;
    EXPECT_TRUE(index.Build(data, config).ok());
    return index;
  }

  IvfRabitqIndex BuildSingle(const Matrix& data,
                             int query_bits = RabitqConfig{}.query_bits) {
    IvfRabitqIndex index;
    IvfConfig ivf;
    ivf.num_lists = kLists;
    RabitqConfig rabitq;
    rabitq.query_bits = query_bits;
    EXPECT_TRUE(index.Build(data, ivf, rabitq).ok());
    return index;
  }

  Matrix data_;
  Matrix queries_;
};

// The tentpole acceptance criterion: under shared clustering, scatter-gather
// search over any shard count returns BIT-IDENTICAL results to the plain
// single-shard index -- same ids, same distances -- for every re-rank
// policy, with LUT sums (the default B_q) and bitwise sums (B_q = 8),
// duplicate-distance ties included.
TEST_F(ShardedTest, MatchesSingleShardBitIdenticallyAllPolicies) {
  std::vector<SearchOptions> param_sets;
  for (const RerankPolicy policy :
       {RerankPolicy::kErrorBound, RerankPolicy::kFixedCandidates,
        RerankPolicy::kNone}) {
    SearchOptions params;
    params.k = 10;
    params.nprobe = 6;
    params.policy = policy;
    params.rerank_candidates = 40;  // < candidate pool: budget split matters
    param_sets.push_back(params);
  }

  for (const int query_bits : {RabitqConfig{}.query_bits, 8}) {
    const IvfRabitqIndex single = BuildSingle(data_, query_bits);
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{3}, EnvShards(4)}) {
      const ShardedIndex sharded = BuildSharded(
          shards, ShardClustering::kShared, data_, 1, query_bits);
      ASSERT_EQ(sharded.num_shards(), shards);
      ASSERT_EQ(sharded.size(), single.size());
      for (SearchOptions params : param_sets) {
        for (std::size_t q = 0; q < kNumQueries; ++q) {
          params.seed = 9000 + q;
          const SearchResponse want =
              single.Search({queries_.Row(q), params});
          const SearchResponse got =
              sharded.Search({queries_.Row(q), params});
          ASSERT_TRUE(want.ok());
          ASSERT_TRUE(got.ok());
          ExpectSameNeighbors(want.neighbors, got.neighbors,
                              "sharded-vs-single");
        }
      }
    }
  }

  // The merged stats are the field-wise sum of the per-shard SearchShard
  // stats, every field included (kErrorBound adds no merge-time re-ranks).
  // A 4-bit build makes codes_refined non-zero.
  const ShardedIndex multibit =
      BuildSharded(EnvShards(4), ShardClustering::kShared, data_, 4);
  SearchOptions params = param_sets.front();
  ASSERT_EQ(params.policy, RerankPolicy::kErrorBound);
  std::vector<float> rotated(multibit.encoder().total_bits());
  IvfSearchScratch scratch;
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    params.seed = 9000 + q;
    const SearchResponse merged = multibit.Search({queries_.Row(q), params});
    ASSERT_TRUE(merged.ok());
    RotateQueryOnce(multibit.encoder(), queries_.Row(q), rotated.data());
    IvfSearchStats sum;
    for (std::size_t s = 0; s < multibit.num_shards(); ++s) {
      std::vector<Neighbor> out;
      IvfSearchStats st;
      ASSERT_TRUE(multibit
                      .SearchShard(s, queries_.Row(q), rotated.data(), params,
                                   *params.seed, &scratch, &out, &st)
                      .ok());
      sum.codes_estimated += st.codes_estimated;
      sum.candidates_reranked += st.candidates_reranked;
      sum.lists_probed += st.lists_probed;
      sum.codes_filtered += st.codes_filtered;
      sum.codes_refined += st.codes_refined;
      sum.rerank_bound_violations += st.rerank_bound_violations;
      sum.rerank_health_samples += st.rerank_health_samples;
      sum.rerank_signed_err_sum += st.rerank_signed_err_sum;
      sum.rerank_tightness_sum += st.rerank_tightness_sum;
    }
    const IvfSearchStats& got = merged.stats;
    EXPECT_EQ(got.codes_estimated, sum.codes_estimated);
    EXPECT_EQ(got.candidates_reranked, sum.candidates_reranked);
    EXPECT_EQ(got.lists_probed, sum.lists_probed);
    EXPECT_EQ(got.codes_filtered, sum.codes_filtered);
    EXPECT_EQ(got.codes_refined, sum.codes_refined);
    EXPECT_EQ(got.rerank_bound_violations, sum.rerank_bound_violations);
    EXPECT_EQ(got.rerank_health_samples, sum.rerank_health_samples);
    EXPECT_EQ(got.rerank_signed_err_sum, sum.rerank_signed_err_sum);
    EXPECT_EQ(got.rerank_tightness_sum, sum.rerank_tightness_sum);
    EXPECT_GT(got.codes_refined, 0u);
    EXPECT_GT(got.rerank_health_samples, 0u);
  }
}

// Property test: random shard counts and random deletes (mirrored into the
// single-shard index), exhaustive settings -> sharded results equal BOTH
// the single-shard index and the brute-force oracle over the live set,
// under the exact policies; kNone additionally matches single-shard and
// never returns a deleted id.
TEST_F(ShardedTest, DeletesAndTiesMatchSingleShardAndOracle) {
  Rng pick(77);
  for (const std::size_t shards :
       {std::size_t{2}, EnvShards(4), std::size_t{5}}) {
    IvfRabitqIndex single = BuildSingle(data_);
    ShardedIndex sharded = BuildSharded(shards, ShardClustering::kShared, data_);
    std::vector<bool> alive(kN, true);
    for (std::size_t i = 0; i < kN / 3; ++i) {
      const std::uint32_t id = static_cast<std::uint32_t>(pick.UniformInt(kN));
      if (!alive[id]) continue;
      ASSERT_TRUE(single.Delete(id).ok());
      ASSERT_TRUE(sharded.Delete(id).ok());
      alive[id] = false;
    }
    ASSERT_EQ(sharded.live_size(), single.live_size());
    ASSERT_EQ(sharded.num_tombstones(), single.num_tombstones());

    // Exhaustive settings: full probe, never prune (huge eps0 override) /
    // re-rank everything -- the result must be the exact live top-k.
    SearchOptions bound;
    bound.k = 10;
    bound.nprobe = kLists;
    bound.epsilon0_override = 50.0f;
    SearchOptions fixed = bound;
    fixed.policy = RerankPolicy::kFixedCandidates;
    fixed.rerank_candidates = kN;
    SearchOptions none = bound;
    none.policy = RerankPolicy::kNone;

    for (std::size_t q = 0; q < kNumQueries; ++q) {
      const std::uint64_t seed = 400 + q;
      const auto oracle = BruteForceLive(data_, queries_.Row(q), 10, alive);
      for (SearchOptions* params : {&bound, &fixed, &none}) {
        params->seed = seed;
      }
      for (const SearchOptions* params : {&bound, &fixed}) {
        const SearchResponse got = sharded.Search({queries_.Row(q), *params});
        const SearchResponse want = single.Search({queries_.Row(q), *params});
        ASSERT_TRUE(got.ok());
        ASSERT_TRUE(want.ok());
        ExpectSameNeighbors(want.neighbors, got.neighbors,
                            "exhaustive sharded-vs-single");
        ExpectSameNeighbors(oracle, got.neighbors,
                            "exhaustive sharded-vs-oracle");
      }
      const SearchResponse got = sharded.Search({queries_.Row(q), none});
      const SearchResponse want = single.Search({queries_.Row(q), none});
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(want.ok());
      ExpectSameNeighbors(want.neighbors, got.neighbors,
                          "kNone sharded-vs-single");
      for (const Neighbor& nb : got.neighbors) {
        EXPECT_TRUE(alive[nb.second]) << "deleted id returned";
      }
    }
  }
}

// Independent per-shard clustering cannot be bit-identical to the single
// index (different centroids), but exhaustive exact re-ranking still has to
// reproduce the oracle exactly.
TEST_F(ShardedTest, PerShardClusteringExhaustiveMatchesOracle) {
  const ShardedIndex sharded =
      BuildSharded(EnvShards(4), ShardClustering::kPerShard, data_);
  std::vector<bool> alive(kN, true);
  SearchOptions params;
  params.k = 10;
  params.nprobe = kLists;
  params.epsilon0_override = 50.0f;
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    const auto oracle = BruteForceLive(data_, queries_.Row(q), 10, alive);
    params.seed = 600 + q;
    const SearchResponse got = sharded.Search({queries_.Row(q), params});
    ASSERT_TRUE(got.ok());
    ExpectSameNeighbors(oracle, got.neighbors, "per-shard exhaustive");
  }
}

// Engine parity: SearchBatch over a sharded engine is bit-identical to the
// sequential ShardedIndex::Search with the engine's per-query seed stream,
// and (under shared clustering) to the single-shard sequential reference.
TEST_F(ShardedTest, EngineSearchBatchMatchesSequential) {
  constexpr std::uint64_t kSeedBase = 121;
  const IvfRabitqIndex single = BuildSingle(data_);
  ShardedIndex sharded =
      BuildSharded(EnvShards(4), ShardClustering::kShared, data_);

  SearchOptions params;
  params.k = 10;
  params.nprobe = 6;

  // Query i carries the engine-style seed QuerySeed(kSeedBase, i).
  std::vector<SearchRequest> requests(kNumQueries);
  for (std::size_t i = 0; i < kNumQueries; ++i) {
    requests[i] = {queries_.Row(i), params};
    requests[i].options.seed = SearchEngine::QuerySeed(kSeedBase, i);
  }

  std::vector<std::vector<Neighbor>> reference(kNumQueries);
  for (std::size_t i = 0; i < kNumQueries; ++i) {
    SearchResponse response = sharded.Search(requests[i]);
    ASSERT_TRUE(response.ok());
    reference[i] = std::move(response.neighbors);
  }

  EngineConfig config;
  config.num_threads = 4;
  SearchEngine engine(std::move(sharded), config);
  std::vector<SearchResponse> responses;
  ASSERT_TRUE(
      engine.SearchBatch(requests.data(), kNumQueries, &responses).ok());
  ASSERT_EQ(responses.size(), kNumQueries);
  IvfSearchStats agg;
  for (std::size_t i = 0; i < kNumQueries; ++i) {
    ExpectSameNeighbors(responses[i].neighbors, reference[i],
                        "engine-vs-sequential");
    const SearchResponse single_ref = single.Search(requests[i]);
    ASSERT_TRUE(single_ref.ok());
    ExpectSameNeighbors(responses[i].neighbors, single_ref.neighbors,
                        "engine-vs-single-shard");
    agg.Add(responses[i].stats);
  }
  EXPECT_GT(agg.codes_estimated, 0u);

  // Async path with explicit seeds agrees too.
  for (std::size_t i = 0; i < 8; ++i) {
    const SearchResponse result = engine.SubmitAsync(requests[i]).get();
    ASSERT_TRUE(result.status.ok());
    ExpectSameNeighbors(result.neighbors, reference[i], "async-vs-sequential");
  }
}

// Round-robin id placement and the mutation surface: ids hash to id % S,
// Add assigns dense global ids, Update keeps id and shard, Delete/Update on
// missing ids fail with NotFound.
TEST_F(ShardedTest, IdPlacementAndMutations) {
  const std::size_t S = 3;
  ShardedIndex index = BuildSharded(S, ShardClustering::kShared, data_);
  for (const std::uint32_t id : {0u, 1u, 2u, 3u, 100u, 699u}) {
    std::uint32_t shard = 0;
    ASSERT_TRUE(index.TryShardOf(id, &shard));
    EXPECT_EQ(shard, id % S);
  }
  std::uint32_t shard = 0;
  EXPECT_FALSE(index.TryShardOf(static_cast<std::uint32_t>(kN), &shard));

  std::vector<float> vec(kDim, 42.0f);
  std::uint32_t id = 0;
  ASSERT_TRUE(index.Add(vec.data(), &id).ok());
  EXPECT_EQ(id, kN);
  ASSERT_TRUE(index.TryShardOf(id, &shard));
  EXPECT_EQ(shard, id % S);
  EXPECT_FALSE(index.IsDeleted(id));
  EXPECT_EQ(index.size(), kN + 1);

  // The fresh vector is findable at ~zero distance, under its global id.
  SearchOptions one;
  one.k = 1;
  one.nprobe = kLists;
  one.seed = 5;
  const SearchResponse found = index.Search({vec.data(), one});
  ASSERT_TRUE(found.ok());
  ASSERT_EQ(found.neighbors.size(), 1u);
  EXPECT_EQ(found.neighbors[0].second, id);
  EXPECT_NEAR(found.neighbors[0].first, 0.0f, 1e-4f);

  // Update keeps id and shard; the new location wins, the old one loses.
  std::vector<float> moved(kDim, -37.0f);
  ASSERT_TRUE(index.Update(id, moved.data()).ok());
  std::uint32_t shard_after = 0;
  ASSERT_TRUE(index.TryShardOf(id, &shard_after));
  EXPECT_EQ(shard_after, shard);
  one.seed = 6;
  const SearchResponse moved_found = index.Search({moved.data(), one});
  ASSERT_TRUE(moved_found.ok());
  ASSERT_EQ(moved_found.neighbors.size(), 1u);
  EXPECT_EQ(moved_found.neighbors[0].second, id);

  ASSERT_TRUE(index.Delete(id).ok());
  EXPECT_TRUE(index.IsDeleted(id));
  EXPECT_EQ(index.Delete(id).code(), StatusCode::kNotFound);
  EXPECT_EQ(index.Update(id, vec.data()).code(), StatusCode::kNotFound);
  EXPECT_EQ(index.Delete(kN + 100).code(), StatusCode::kNotFound);

  // Compaction across shards drains the tombstones.
  ASSERT_TRUE(index.Compact().ok());
  EXPECT_EQ(index.num_tombstones(), 0u);

  // k == 0 is rejected for every policy (including kFixedCandidates, whose
  // shard pass internally rewrites k).
  for (const RerankPolicy policy :
       {RerankPolicy::kErrorBound, RerankPolicy::kFixedCandidates,
        RerankPolicy::kNone}) {
    SearchOptions zero;
    zero.k = 0;
    zero.policy = policy;
    zero.seed = 1;
    EXPECT_FALSE(index.Search({vec.data(), zero}).ok());
  }
}

TEST_F(ShardedTest, BuildRejectsBadConfigs) {
  ShardedIndex index;
  ShardedConfig config;
  config.num_shards = 0;
  EXPECT_FALSE(index.Build(data_, config).ok());
  config.num_shards = kN + 1;  // more shards than vectors
  EXPECT_FALSE(index.Build(data_, config).ok());
  config.num_shards = ShardedIndex::kMaxShards + 1;
  EXPECT_FALSE(index.Build(data_, config).ok());
}

// A non-finite coordinate fails the sharded build under both clustering
// modes, and a sharded search, add or update, before anything is touched.
TEST_F(ShardedTest, RejectsNonFiniteVectors) {
  Matrix poisoned = data_;
  poisoned.At(9, 2) = std::numeric_limits<float>::quiet_NaN();
  for (const ShardClustering clustering :
       {ShardClustering::kShared, ShardClustering::kPerShard}) {
    ShardedIndex index;
    ShardedConfig config;
    config.num_shards = 3;
    config.clustering = clustering;
    config.ivf.num_lists = kLists;
    EXPECT_EQ(index.Build(poisoned, config).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(index.num_shards(), 0u);
  }
  ShardedIndex index =
      BuildSharded(3, ShardClustering::kShared, data_);
  std::vector<float> vec(queries_.Row(0), queries_.Row(0) + kDim);
  vec[4] = -std::numeric_limits<float>::infinity();
  SearchOptions params;
  params.k = 5;
  EXPECT_EQ(index.Search({vec.data(), params}).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(index.Update(1, vec.data()).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(index.Add(vec.data()).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(index.live_size(), kN);
  EXPECT_EQ(index.num_tombstones(), 0u);
}

// Sharded snapshot round trip: mutate (deletes + updates + adds), save to a
// manifest + per-shard blobs, reload, and require bit-identical results and
// accounting. Also: a single-FILE v2 snapshot loads into a 1-shard
// configuration through the same entry point.
TEST_F(ShardedTest, ShardedSnapshotRoundTripsBitIdentically) {
  const std::string dir = ::testing::TempDir() + "/sharded_snapshot";
  std::filesystem::remove_all(dir);

  ShardedIndex index = BuildSharded(3, ShardClustering::kShared, data_);
  Rng rng(5);
  std::vector<float> vec(kDim);
  for (std::uint32_t id = 0; id < kN; id += 7) {
    ASSERT_TRUE(index.Delete(id).ok());
  }
  for (std::uint32_t id = 1; id < kN; id += 97) {
    if (id % 7 == 0) continue;  // deleted above
    for (auto& v : vec) v = static_cast<float>(rng.Gaussian()) * 2.0f;
    ASSERT_TRUE(index.Update(id, vec.data()).ok());
  }
  for (int i = 0; i < 15; ++i) {
    for (auto& v : vec) v = static_cast<float>(rng.Gaussian());
    ASSERT_TRUE(index.Add(vec.data()).ok());
  }
  ASSERT_GT(index.num_tombstones(), 0u);

  SearchOptions params;
  params.k = 10;
  params.nprobe = kLists;
  std::vector<SearchRequest> requests(kNumQueries);
  std::vector<std::vector<Neighbor>> before(kNumQueries);
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    requests[q] = {queries_.Row(q), params};
    requests[q].options.seed = 800 + q;
    SearchResponse response = index.Search(requests[q]);
    ASSERT_TRUE(response.ok());
    before[q] = std::move(response.neighbors);
  }

  ASSERT_TRUE(index.Save(dir).ok());
  ASSERT_TRUE(std::filesystem::exists(dir + "/MANIFEST"));
  ASSERT_TRUE(std::filesystem::exists(dir + "/shard_0000.rbq"));
  ASSERT_TRUE(std::filesystem::exists(dir + "/shard_0002.rbq"));

  ShardedIndex loaded;
  ASSERT_TRUE(loaded.Load(dir).ok());
  EXPECT_EQ(loaded.num_shards(), 3u);
  EXPECT_EQ(loaded.size(), index.size());
  EXPECT_EQ(loaded.live_size(), index.live_size());
  EXPECT_EQ(loaded.num_tombstones(), index.num_tombstones());
  for (std::uint32_t id = 0; id < index.size(); ++id) {
    EXPECT_EQ(loaded.IsDeleted(id), index.IsDeleted(id)) << "id " << id;
  }
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    const SearchResponse after = loaded.Search(requests[q]);
    ASSERT_TRUE(after.ok());
    ExpectSameNeighbors(before[q], after.neighbors, "snapshot round trip");
  }

  // The reloaded index keeps mutating: compaction drains the restored
  // tombstones without changing results.
  ASSERT_TRUE(loaded.Compact().ok());
  EXPECT_EQ(loaded.num_tombstones(), 0u);
  for (std::size_t q = 0; q < kNumQueries; ++q) {
    const SearchResponse after = loaded.Search(requests[q]);
    ASSERT_TRUE(after.ok());
    ExpectSameNeighbors(before[q], after.neighbors, "post-compaction");
  }
  std::filesystem::remove_all(dir);
}

TEST_F(ShardedTest, SingleFileSnapshotLoadsAsOneShard) {
  const std::string path = ::testing::TempDir() + "/single_file.rbq";
  IvfRabitqIndex single = BuildSingle(data_);
  ASSERT_TRUE(single.Save(path).ok());

  ShardedIndex loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.num_shards(), 1u);
  EXPECT_EQ(loaded.size(), kN);

  SearchOptions params;
  params.k = 10;
  params.nprobe = 6;
  for (std::size_t q = 0; q < 8; ++q) {
    params.seed = 70 + q;
    const SearchResponse want = single.Search({queries_.Row(q), params});
    const SearchResponse got = loaded.Search({queries_.Row(q), params});
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    ExpectSameNeighbors(want.neighbors, got.neighbors, "single-file fallback");
  }
  std::remove(path.c_str());
}

// FromSingle wraps a built monolith index without disturbing it: 1-shard
// scatter-gather equals the wrapped index's own results.
TEST_F(ShardedTest, FromSingleIsTransparent) {
  IvfRabitqIndex single = BuildSingle(data_);
  SearchOptions params;
  params.k = 10;
  params.nprobe = 6;
  std::vector<SearchRequest> requests(8);
  std::vector<std::vector<Neighbor>> want(8);
  for (std::size_t q = 0; q < 8; ++q) {
    requests[q] = {queries_.Row(q), params};
    requests[q].options.seed = 50 + q;
    SearchResponse response = single.Search(requests[q]);
    ASSERT_TRUE(response.ok());
    want[q] = std::move(response.neighbors);
  }
  const ShardedIndex wrapped = ShardedIndex::FromSingle(std::move(single));
  EXPECT_EQ(wrapped.num_shards(), 1u);
  EXPECT_EQ(wrapped.size(), kN);
  for (std::size_t q = 0; q < 8; ++q) {
    const SearchResponse got = wrapped.Search(requests[q]);
    ASSERT_TRUE(got.ok());
    ExpectSameNeighbors(want[q], got.neighbors, "FromSingle");
  }
}

}  // namespace
}  // namespace rabitq
