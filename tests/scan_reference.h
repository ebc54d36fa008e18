// A scalar replay of IvfRabitqIndex::SearchWithScratch for the search
// tests. Per probed list it prepares the query exactly as the search does
// (same probe order, same per-list rounding seed), but takes every block's
// sums from B_q bitwise passes (a copy of the query with has_exact_luts
// cleared) and assembles them with the scalar references
// (EstimateBlockFusedPrunedScalar, and EstimateBlockMultiPrunedScalar at
// B_d > 1). The search takes LUT sums at B_q <= 6 and the AVX2 assembly on
// full blocks, so equality with this replay pins both against their
// references; at B_q >= 7 both sides take bitwise sums.
//
// Selection follows the search step for step: each block's kernels prune
// against the threshold as it stood when the block began, each survivor is
// re-checked against the live threshold, and the estimate-only policies pool
// every live allowed code. Deleted ids are skipped and ids the options'
// filter rejects are counted in codes_filtered. Stale Update entries are not
// modeled: the tests that use this replay never Update. Deadlines are
// ignored.

#ifndef RABITQ_TESTS_SCAN_REFERENCE_H_
#define RABITQ_TESTS_SCAN_REFERENCE_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/estimator.h"
#include "core/metric.h"
#include "core/query.h"
#include "index/ivf.h"
#include "linalg/vector_ops.h"
#include "util/prng.h"

namespace rabitq {

inline SearchResponse ReferenceSearch(const IvfRabitqIndex& index,
                                      const float* query_in,
                                      const SearchOptions& options) {
  SearchResponse response;
  IvfSearchStats& stats = response.stats;
  const Metric metric = index.metric();
  const std::size_t dim = index.dim();
  std::vector<float> query(query_in, query_in + dim);
  if (metric == Metric::kCosine) NormalizeInPlace(query.data(), dim);
  const float query_norm_sq =
      metric == Metric::kL2 ? 0.0f : SquaredNorm(query.data(), dim);
  const RabitqEncoder& encoder = index.encoder();
  std::vector<float> rotated(encoder.total_bits());
  RotateQueryOnce(encoder, query.data(), rotated.data());
  std::vector<std::pair<float, std::uint32_t>> order;
  index.ProbeOrderInto(query.data(), options.nprobe, &order);
  const std::size_t nprobe = std::min(options.nprobe, order.size());
  const float epsilon0 = options.epsilon0_override >= 0.0f
                             ? options.epsilon0_override
                             : encoder.config().epsilon0;
  const bool rerank = options.policy == RerankPolicy::kErrorBound;
  const bool multi = encoder.config().bits_per_dim > 1;
  const float inf = std::numeric_limits<float>::infinity();
  const std::uint64_t seed = options.seed.value_or(0);

  TopKHeap heap(options.k);
  std::vector<Neighbor> pool;
  QuantizedQuery qq;
  for (std::size_t p = 0; p < nprobe; ++p) {
    const std::uint32_t list = order[p].second;
    const std::vector<std::uint32_t>& ids = index.list_ids(list);
    if (ids.empty()) continue;
    ++stats.lists_probed;
    stats.codes_estimated += ids.size();
    const RabitqCodeStore& codes = index.list_codes(list);
    Rng list_rng(MixSeed(seed, list));
    const float q_dist = std::sqrt(std::max(
        0.0f, L2SqrDistance(query.data(), index.centroids().Row(list), dim)));
    if (!PrepareQueryFromRotated(encoder, rotated.data(),
                                 index.rotated_centroids().Row(list), q_dist,
                                 &list_rng, &qq, /*query_bits_override=*/0,
                                 metric, query_norm_sq)
             .ok()) {
      response.status = Status::Internal("query preparation failed");
      return response;
    }
    qq.has_exact_luts = false;
    for (std::size_t begin = 0; begin < ids.size();
         begin += kFastScanBlockSize) {
      const std::size_t block = begin / kFastScanBlockSize;
      const std::size_t count =
          std::min(kFastScanBlockSize, ids.size() - begin);
      std::uint32_t allowed = 0;
      for (std::size_t k = 0; k < count; ++k) {
        if (index.IsDeleted(ids[begin + k])) continue;
        if (options.filter.active() &&
            !options.filter.Allows(ids[begin + k])) {
          ++stats.codes_filtered;
          continue;
        }
        allowed |= 1u << k;
      }
      if (allowed == 0) continue;
      const float threshold = rerank && heap.full() ? heap.Threshold() : inf;
      std::uint32_t sums[kFastScanBlockSize];
      std::uint32_t multi_sums[kFastScanBlockSize];
      float est[kFastScanBlockSize], lb[kFastScanBlockSize];
      float multi_lb[kFastScanBlockSize];
      AccumulateBlockSums(qq, codes, block, sums);
      std::uint32_t survivors = EstimateBlockFusedPrunedScalar(
          qq, codes, block, sums, epsilon0, threshold, /*dead=*/nullptr, est,
          lb, allowed);
      if (multi && survivors != 0) {
        stats.codes_refined +=
            static_cast<std::size_t>(std::popcount(survivors));
        AccumulateMultiBlockSums(qq, codes, block, sums, multi_sums);
        survivors = EstimateBlockMultiPrunedScalar(qq, codes, block,
                                                   multi_sums, epsilon0,
                                                   threshold, survivors, est,
                                                   multi_lb);
      }
      for (; survivors != 0; survivors &= survivors - 1) {
        const std::size_t k = std::countr_zero(survivors);
        const std::uint32_t id = ids[begin + k];
        if (!rerank) {
          pool.emplace_back(est[k], id);
          continue;
        }
        if (heap.full() && (lb[k] > heap.Threshold() ||
                            (multi && multi_lb[k] > heap.Threshold()))) {
          continue;
        }
        heap.Push(MetricDistance(metric, index.vector(id), query.data(), dim),
                  id);
        ++stats.candidates_reranked;
      }
    }
  }

  if (rerank) {
    response.neighbors = heap.ExtractSorted();
  } else if (options.policy == RerankPolicy::kFixedCandidates) {
    const std::size_t keep =
        std::min(std::max(options.rerank_candidates, options.k), pool.size());
    std::partial_sort(pool.begin(), pool.begin() + keep, pool.end());
    for (std::size_t i = 0; i < keep; ++i) {
      const std::uint32_t id = pool[i].second;
      heap.Push(MetricDistance(metric, index.vector(id), query.data(), dim),
                id);
    }
    stats.candidates_reranked = keep;
    response.neighbors = heap.ExtractSorted();
  } else {
    const std::size_t keep = std::min(options.k, pool.size());
    std::partial_sort(pool.begin(), pool.begin() + keep, pool.end());
    response.neighbors.assign(pool.begin(), pool.begin() + keep);
  }
  return response;
}

}  // namespace rabitq

#endif  // RABITQ_TESTS_SCAN_REFERENCE_H_
