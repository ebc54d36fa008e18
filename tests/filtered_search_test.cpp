// Filtered search: the per-query IdFilter pushed down into candidate
// selection (the fused kernel's survivors mask, and the identical checks in
// the scalar reference kernel).
//   * brute-force-oracle equality across selectivities {0%, 1%, 50%, 99%,
//     100%} -- filtered results are EXACTLY the top-k of the allowed
//     subset, with codes_filtered accounting for every live excluded code --
//     with LUT sums (the default B_q) and bitwise sums (B_q = 8);
//   * filter x tombstone interaction (neither double-counts the other);
//   * fused-vs-scalar survivors-mask bit-parity under random lane masks;
//   * the fused search under a filter is bit-identical to the scalar replay
//     with bitwise sums (tests/scan_reference.h), at both B_q;
//   * sharded and engine parity with per-shard filter slicing (a GLOBAL-id
//     filter consulted through each shard's local->global map);
//   * predicate / allow-bitmap / deny-bitmap agreement and the
//     out-of-range bitmap semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/estimator.h"
#include "core/query.h"
#include "engine/search_engine.h"
#include "index/brute_force.h"
#include "index/ivf.h"
#include "index/sharded.h"
#include "linalg/vector_ops.h"
#include "quant/fastscan.h"
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

// Random allow-bitmap over [0, n) with ~selectivity fraction of bits set.
std::vector<std::uint64_t> RandomBitmap(std::size_t n, double selectivity,
                                        std::uint64_t seed,
                                        std::size_t* num_allowed) {
  Rng rng(seed);
  std::vector<std::uint64_t> bits((n + 63) / 64, 0);
  std::size_t allowed = 0;
  for (std::size_t id = 0; id < n; ++id) {
    if (static_cast<double>(rng.UniformInt(1u << 20)) <
        selectivity * static_cast<double>(1u << 20)) {
      bits[id >> 6] |= std::uint64_t{1} << (id & 63u);
      ++allowed;
    }
  }
  if (num_allowed != nullptr) *num_allowed = allowed;
  return bits;
}

bool BitSet(const std::vector<std::uint64_t>& bits, std::uint32_t id) {
  return (bits[id >> 6] >> (id & 63u)) & 1u;
}

// Exact top-k over the subset of ids that are live in `index` and allowed
// by `bits` -- the oracle filtered search must match bit-for-bit. Ties
// break by (distance, id), like TopKHeap.
std::vector<Neighbor> OracleSubsetTopK(const Matrix& data,
                                       const IvfRabitqIndex& index,
                                       const std::vector<std::uint64_t>& bits,
                                       const float* query, std::size_t k) {
  TopKHeap heap(k);
  for (std::size_t id = 0; id < data.rows(); ++id) {
    const std::uint32_t uid = static_cast<std::uint32_t>(id);
    if (index.IsDeleted(uid) || !BitSet(bits, uid)) continue;
    heap.Push(L2SqrDistance(data.Row(id), query, data.cols()), uid);
  }
  return heap.ExtractSorted();
}

class FilteredSearchTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 3000;
  static constexpr std::size_t kDim = 40;
  static constexpr std::size_t kK = 10;

  void SetUp() override {
    data_ = ClusteredData(kN, kDim, 16, 21);
    IvfConfig ivf;
    ivf.num_lists = 24;
    ASSERT_TRUE(index_.Build(data_, ivf, RabitqConfig{}).ok());
    // Same clustering, B_q = 8: no lossless LUTs, so every block's sums
    // come from bitwise passes.
    RabitqConfig bitwise;
    bitwise.query_bits = 8;
    ASSERT_TRUE(index_bq8_.Build(data_, ivf, bitwise).ok());
    queries_ = ClusteredData(8, kDim, 16, 22);
  }

  // Exhaustive settings: full probe and a huge eps0 override so the bound
  // never prunes -- kErrorBound results are then exactly the top-k of the
  // (live, allowed) candidate set (the same idiom as the sharded/lifecycle
  // oracle tests; with the paper's eps0 a bound violation at the k-th
  // boundary is a designed-in rare event).
  SearchOptions ExhaustiveOptions(std::uint64_t seed) const {
    SearchOptions options;
    options.k = kK;
    options.nprobe = index_.num_lists();
    options.epsilon0_override = 50.0f;
    options.seed = seed;
    return options;
  }

  Matrix data_;
  Matrix queries_;
  IvfRabitqIndex index_;
  IvfRabitqIndex index_bq8_;
};

TEST_F(FilteredSearchTest, OracleEqualityAcrossSelectivities) {
  for (const IvfRabitqIndex* index : {&index_, &index_bq8_}) {
    for (const double selectivity : {0.0, 0.01, 0.5, 0.99, 1.0}) {
      std::size_t allowed = 0;
      const auto bits = RandomBitmap(kN, selectivity, 777, &allowed);
      for (std::size_t q = 0; q < queries_.rows(); ++q) {
        SearchRequest request{queries_.Row(q), ExhaustiveOptions(900 + q)};
        request.options.filter = IdFilter::AllowBitmap(bits.data(), kN);
        const SearchResponse response = index->Search(request);
        ASSERT_TRUE(response.ok()) << response.status.ToString();
        const auto oracle =
            OracleSubsetTopK(data_, *index, bits, queries_.Row(q), kK);
        ASSERT_EQ(response.neighbors.size(), oracle.size())
            << "selectivity " << selectivity;
        for (std::size_t i = 0; i < oracle.size(); ++i) {
          EXPECT_EQ(response.neighbors[i].second, oracle[i].second);
          EXPECT_EQ(response.neighbors[i].first, oracle[i].first);
        }
        // Exhaustive probing scans every live code exactly once, so the
        // filter drops exactly the live-but-disallowed ones.
        EXPECT_EQ(response.stats.codes_filtered, kN - allowed)
            << "selectivity " << selectivity;
        if (selectivity == 1.0) {
          EXPECT_EQ(response.stats.codes_filtered, 0u);
        } else {
          EXPECT_GT(response.stats.codes_filtered, 0u);
        }
        if (selectivity == 0.0) {
          EXPECT_TRUE(response.neighbors.empty());
        }
      }
    }
  }
}

TEST_F(FilteredSearchTest, UnfilteredRequestMatchesAndReportsZeroFiltered) {
  for (std::size_t q = 0; q < queries_.rows(); ++q) {
    SearchRequest plain{queries_.Row(q), ExhaustiveOptions(42 + q)};
    SearchRequest inactive = plain;
    inactive.options.filter = IdFilter{};  // default: inactive
    const SearchResponse a = index_.Search(plain);
    const SearchResponse b = index_.Search(inactive);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.neighbors, b.neighbors);
    EXPECT_EQ(a.stats.codes_filtered, 0u);
  }
}

TEST_F(FilteredSearchTest, FilterTombstoneInteraction) {
  // Tombstone every id divisible by 3, filter to even ids: results must be
  // the top-k over ids that are even AND not divisible by 3; neither the
  // tombstones nor the filter leak into codes_filtered's accounting of the
  // other.
  std::size_t live = 0, live_and_allowed = 0;
  std::vector<std::uint64_t> bits((kN + 63) / 64, 0);
  for (std::uint32_t id = 0; id < kN; ++id) {
    if (id % 3 == 0) {
      ASSERT_TRUE(index_.Delete(id).ok());
    } else {
      ++live;
    }
    if (id % 2 == 0) {
      bits[id >> 6] |= std::uint64_t{1} << (id & 63u);
      if (id % 3 != 0) ++live_and_allowed;
    }
  }
  for (std::size_t q = 0; q < queries_.rows(); ++q) {
    SearchRequest request{queries_.Row(q), ExhaustiveOptions(31 + q)};
    request.options.filter = IdFilter::AllowBitmap(bits.data(), kN);
    const SearchResponse response = index_.Search(request);
    ASSERT_TRUE(response.ok());
    const auto oracle =
        OracleSubsetTopK(data_, index_, bits, queries_.Row(q), kK);
    EXPECT_EQ(response.neighbors, oracle);
    for (const Neighbor& nb : response.neighbors) {
      EXPECT_EQ(nb.second % 2, 0u);
      EXPECT_NE(nb.second % 3, 0u);
    }
    // codes_filtered counts live codes the filter excluded -- tombstoned
    // entries are the dead mask's job, not the filter's.
    EXPECT_EQ(response.stats.codes_filtered, live - live_and_allowed);
  }
}

TEST_F(FilteredSearchTest, PredicateNeverSeesTombstonedIds) {
  // The IdFilter contract: predicates run only on LIVE candidate ids, so a
  // caller may key them off live-only metadata. Pinned for LUT sums and
  // bitwise sums (B_q = 8) alike.
  for (IvfRabitqIndex* index : {&index_, &index_bq8_}) {
    for (std::uint32_t id = 0; id < kN; id += 4) {
      ASSERT_TRUE(index->Delete(id).ok());
    }
  }
  struct Ctx {
    const IvfRabitqIndex* index;
    std::size_t dead_seen = 0;
  };
  const auto pred = [](void* context, std::uint32_t id) {
    Ctx* c = static_cast<Ctx*>(context);
    if (c->index->IsDeleted(id)) ++c->dead_seen;
    return id % 2 == 0;
  };
  for (const IvfRabitqIndex* index : {&index_, &index_bq8_}) {
    Ctx ctx{index, 0};
    SearchRequest request{queries_.Row(0), ExhaustiveOptions(12)};
    request.options.filter = IdFilter::FromPredicate(pred, &ctx);
    ASSERT_TRUE(index->Search(request).ok());
    EXPECT_EQ(ctx.dead_seen, 0u)
        << "B_q=" << index->encoder().config().query_bits;
  }
}

TEST_F(FilteredSearchTest, FusedAndBitwiseEstimatorsAgreeUnderFilter) {
  std::size_t allowed = 0;
  const auto bits = RandomBitmap(kN, 0.5, 999, &allowed);
  for (const IvfRabitqIndex* index : {&index_, &index_bq8_}) {
    for (const RerankPolicy policy :
         {RerankPolicy::kErrorBound, RerankPolicy::kFixedCandidates,
          RerankPolicy::kNone}) {
      for (std::size_t q = 0; q < queries_.rows(); ++q) {
        SearchRequest request{queries_.Row(q), ExhaustiveOptions(555 + q)};
        request.options.policy = policy;
        request.options.rerank_candidates = 64;
        // Paper eps0: in-kernel lower-bound pruning stays LIVE here -- this
        // pins fused-vs-bitwise parity with filter, pruning and re-ranking
        // all interacting, not just the never-prune oracle setting.
        request.options.epsilon0_override = -1.0f;
        request.options.filter = IdFilter::AllowBitmap(bits.data(), kN);
        const SearchResponse a = index->Search(request);
        const SearchResponse b =
            ReferenceSearch(*index, request.query, request.options);
        ASSERT_TRUE(a.ok() && b.ok());
        EXPECT_EQ(a.neighbors, b.neighbors);
        EXPECT_EQ(a.stats.codes_filtered, b.stats.codes_filtered);
        EXPECT_EQ(a.stats.candidates_reranked, b.stats.candidates_reranked);
        for (const Neighbor& nb : a.neighbors) {
          EXPECT_TRUE(BitSet(bits, nb.second));
        }
      }
    }
  }
}

TEST_F(FilteredSearchTest, FixedCandidatesOracleEqualityAtFullBudget) {
  // With R >= allowed-set size the re-rank covers every allowed candidate,
  // so filtered kFixedCandidates is exact too.
  std::size_t allowed = 0;
  const auto bits = RandomBitmap(kN, 0.05, 4242, &allowed);
  for (std::size_t q = 0; q < queries_.rows(); ++q) {
    SearchRequest request{queries_.Row(q), ExhaustiveOptions(77 + q)};
    request.options.policy = RerankPolicy::kFixedCandidates;
    request.options.rerank_candidates = kN;
    request.options.filter = IdFilter::AllowBitmap(bits.data(), kN);
    const SearchResponse response = index_.Search(request);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.neighbors,
              OracleSubsetTopK(data_, index_, bits, queries_.Row(q), kK));
  }
}

TEST_F(FilteredSearchTest, PredicateDenyAndAllowAgree) {
  std::size_t allowed = 0;
  const auto bits = RandomBitmap(kN, 0.5, 31337, &allowed);
  // Deny-bitmap complement of the allow bitmap over the id space.
  std::vector<std::uint64_t> deny(bits.size());
  for (std::size_t w = 0; w < bits.size(); ++w) deny[w] = ~bits[w];

  struct Ctx {
    const std::vector<std::uint64_t>* bits;
  } ctx{&bits};
  const auto pred = [](void* context, std::uint32_t id) {
    return BitSet(*static_cast<Ctx*>(context)->bits, id);
  };

  for (std::size_t q = 0; q < queries_.rows(); ++q) {
    SearchRequest request{queries_.Row(q), ExhaustiveOptions(606 + q)};
    request.options.filter = IdFilter::AllowBitmap(bits.data(), kN);
    const SearchResponse via_allow = index_.Search(request);
    request.options.filter = IdFilter::DenyBitmap(deny.data(), kN);
    const SearchResponse via_deny = index_.Search(request);
    request.options.filter = IdFilter::FromPredicate(pred, &ctx);
    const SearchResponse via_pred = index_.Search(request);
    ASSERT_TRUE(via_allow.ok() && via_deny.ok() && via_pred.ok());
    EXPECT_EQ(via_allow.neighbors, via_deny.neighbors);
    EXPECT_EQ(via_allow.neighbors, via_pred.neighbors);
    EXPECT_EQ(via_allow.stats.codes_filtered, via_deny.stats.codes_filtered);
    EXPECT_EQ(via_allow.stats.codes_filtered, via_pred.stats.codes_filtered);
  }
}

TEST_F(FilteredSearchTest, OutOfRangeBitmapSemantics) {
  // Bitmaps covering only [0, kN) while the index grows: appended ids are
  // denied by an allow-bitmap and admitted by a deny-bitmap.
  std::vector<float> vec(kDim, 0.25f);
  std::uint32_t new_id = 0;
  ASSERT_TRUE(index_.Add(vec.data(), &new_id).ok());
  ASSERT_EQ(new_id, kN);

  std::vector<std::uint64_t> all_set((kN + 63) / 64,
                                     ~std::uint64_t{0});  // covers old ids
  SearchRequest request{vec.data(), ExhaustiveOptions(5)};
  request.options.filter = IdFilter::AllowBitmap(all_set.data(), kN);
  const SearchResponse via_allow = index_.Search(request);
  ASSERT_TRUE(via_allow.ok());
  for (const Neighbor& nb : via_allow.neighbors) EXPECT_NE(nb.second, new_id);

  std::vector<std::uint64_t> none_set((kN + 63) / 64, 0);
  request.options.filter = IdFilter::DenyBitmap(none_set.data(), kN);
  const SearchResponse via_deny = index_.Search(request);
  ASSERT_TRUE(via_deny.ok());
  // The query IS the appended vector, so under a filter that denies nothing
  // the new id must surface as the nearest hit.
  ASSERT_FALSE(via_deny.neighbors.empty());
  EXPECT_EQ(via_deny.neighbors.front().second, new_id);
}

// ---------------------------------------------------------------------------
// Kernel-level parity: the pruned fused kernel's survivors mask vs its
// scalar reference, under random lane masks, tombstones and thresholds.

TEST(FilteredKernelTest, FusedVsScalarMaskBitParity) {
  for (const std::size_t n : {32u, 61u, 96u, 127u}) {
    Rng rng(1000 + n);
    const std::size_t dim = 48;
    RabitqConfig config;
    config.seed = 17 * n;
    RabitqEncoder encoder;
    ASSERT_TRUE(encoder.Init(dim, config).ok());
    RabitqCodeStore store;
    store.Init(encoder.total_bits());
    std::vector<float> centroid(dim);
    for (auto& x : centroid) x = static_cast<float>(rng.Gaussian()) * 0.5f;
    std::vector<float> v(dim);
    for (std::size_t i = 0; i < n; ++i) {
      for (auto& x : v) x = static_cast<float>(rng.Gaussian());
      ASSERT_TRUE(encoder.EncodeAppend(v.data(), centroid.data(), &store).ok());
    }

    std::vector<float> query(dim);
    for (auto& x : query) x = static_cast<float>(rng.Gaussian());
    Rng qrng(n);
    QuantizedQuery qq;
    ASSERT_TRUE(
        PrepareQuery(encoder, query.data(), centroid.data(), &qrng, &qq).ok());
    ASSERT_TRUE(qq.has_exact_luts);

    std::vector<std::uint8_t> dead(store.size(), 0);
    for (std::size_t i = 0; i < dead.size(); ++i) {
      dead[i] = rng.UniformInt(5) == 0 ? 1 : 0;
    }

    const FastScanCodes& packed = store.packed();
    std::uint32_t sums[kFastScanBlockSize];
    for (std::size_t block = 0; block < packed.num_blocks; ++block) {
      FastScanAccumulateBlock(packed.BlockPtr(block), packed.num_segments,
                              qq.luts.data(), sums);
      const std::size_t begin = block * kFastScanBlockSize;
      for (int trial = 0; trial < 8; ++trial) {
        const std::uint32_t lane_mask =
            static_cast<std::uint32_t>(rng.NextU64());
        const float threshold =
            trial == 0 ? std::numeric_limits<float>::infinity()
                       : 1.0f + 4.0f * rng.UniformFloat();
        float fused_d[kFastScanBlockSize], fused_lb[kFastScanBlockSize];
        float ref_d[kFastScanBlockSize], ref_lb[kFastScanBlockSize];
        const std::uint32_t fused_mask = EstimateBlockFusedPruned(
            qq, store, block, sums, encoder.config().epsilon0, threshold,
            dead.data() + begin, fused_d, fused_lb, lane_mask);
        const std::uint32_t ref_mask = EstimateBlockFusedPrunedScalar(
            qq, store, block, sums, encoder.config().epsilon0, threshold,
            dead.data() + begin, ref_d, ref_lb, lane_mask);
        EXPECT_EQ(fused_mask, ref_mask)
            << "n=" << n << " block=" << block << " mask=" << lane_mask;
        // No lane outside lane_mask may survive; surviving lanes carry
        // bit-identical estimates.
        EXPECT_EQ(fused_mask & ~lane_mask, 0u);
        const std::size_t count =
            std::min(kFastScanBlockSize, store.size() - begin);
        for (std::size_t k = 0; k < count; ++k) {
          if ((fused_mask >> k) & 1u) {
            EXPECT_EQ(fused_d[k], ref_d[k]);
            EXPECT_EQ(fused_lb[k], ref_lb[k]);
            EXPECT_EQ(dead[begin + k], 0);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded / engine parity with per-shard filter slicing.

class ShardedFilterTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 2400;
  static constexpr std::size_t kDim = 32;
  static constexpr std::size_t kK = 10;

  void SetUp() override {
    data_ = ClusteredData(kN, kDim, 12, 51);
    queries_ = ClusteredData(6, kDim, 12, 52);
    bits_ = RandomBitmap(kN, 0.5, 8181, &allowed_);
  }

  ShardedIndex BuildSharded(std::size_t shards) {
    ShardedConfig config;
    config.num_shards = shards;
    config.clustering = ShardClustering::kShared;
    config.ivf.num_lists = 20;
    ShardedIndex index;
    EXPECT_TRUE(index.Build(data_, config).ok());
    return index;
  }

  SearchOptions FilteredOptions(std::uint64_t seed) const {
    SearchOptions options;
    options.k = kK;
    options.nprobe = 20;
    // Never-prune override: shard-count bit-identity for kErrorBound holds
    // unconditionally only when no bound violation can occur at the k-th
    // boundary (each shard prunes against its own weaker threshold).
    options.epsilon0_override = 50.0f;
    options.seed = seed;
    options.filter = IdFilter::AllowBitmap(bits_.data(), kN);
    return options;
  }

  Matrix data_;
  Matrix queries_;
  std::vector<std::uint64_t> bits_;
  std::size_t allowed_ = 0;
};

TEST_F(ShardedFilterTest, ShardCountsAgreeBitIdentically) {
  ShardedIndex one = BuildSharded(1);
  ShardedIndex three = BuildSharded(3);
  for (std::size_t q = 0; q < queries_.rows(); ++q) {
    const SearchRequest request{queries_.Row(q), FilteredOptions(17 + q)};
    const SearchResponse a = one.Search(request);
    const SearchResponse b = three.Search(request);
    ASSERT_TRUE(a.ok() && b.ok());
    // kShared clustering + global-id filter sliced per shard: the candidate
    // set (and with it the result) is shard-layout independent.
    EXPECT_EQ(a.neighbors, b.neighbors);
    EXPECT_EQ(a.stats.codes_filtered, b.stats.codes_filtered);
    for (const Neighbor& nb : a.neighbors) {
      EXPECT_TRUE(BitSet(bits_, nb.second));
    }
  }
}

TEST_F(ShardedFilterTest, EngineBatchMatchesSequentialFilteredReference) {
  ShardedIndex reference = BuildSharded(3);
  std::vector<SearchResponse> expected;
  std::vector<SearchRequest> requests;
  for (std::size_t q = 0; q < queries_.rows(); ++q) {
    requests.push_back({queries_.Row(q), FilteredOptions(400 + q)});
    expected.push_back(reference.Search(requests.back()));
    ASSERT_TRUE(expected.back().ok());
  }

  SearchEngine engine(BuildSharded(3), EngineConfig{});
  std::vector<SearchResponse> responses;
  ASSERT_TRUE(
      engine.SearchBatch(requests.data(), requests.size(), &responses).ok());
  ASSERT_EQ(responses.size(), expected.size());
  std::uint64_t filtered_total = 0;
  for (std::size_t q = 0; q < responses.size(); ++q) {
    EXPECT_EQ(responses[q].neighbors, expected[q].neighbors);
    EXPECT_EQ(responses[q].stats.codes_filtered,
              expected[q].stats.codes_filtered);
    filtered_total += responses[q].stats.codes_filtered;
  }
  EXPECT_GT(filtered_total, 0u);
  // The satellite stats plumbing: per-query filter counts aggregate into
  // the engine's serving stats endpoint.
  EXPECT_EQ(engine.Stats().codes_filtered, filtered_total);
}

TEST_F(ShardedFilterTest, AsyncFilteredSubmissionMatchesSync) {
  SearchEngine engine(BuildSharded(2), EngineConfig{});
  for (std::size_t q = 0; q < queries_.rows(); ++q) {
    const SearchRequest request{queries_.Row(q), FilteredOptions(73 + q)};
    SearchResponse via_async = engine.SubmitAsync(request).get();
    SearchResponse via_sync = engine.Search(request);
    ASSERT_TRUE(via_async.ok() && via_sync.ok());
    EXPECT_EQ(via_async.neighbors, via_sync.neighbors);
    for (const Neighbor& nb : via_async.neighbors) {
      EXPECT_TRUE(BitSet(bits_, nb.second));
    }
  }
}

}  // namespace
}  // namespace rabitq
