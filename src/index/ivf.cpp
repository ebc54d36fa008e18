#include "index/ivf.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <numeric>

#include "linalg/vector_ops.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace rabitq {

namespace {

// 32-lane allow mask of one fast-scan block for the pushed-down IdFilter:
// bit k set iff lane k is live and filter.Allows(ids[k]). Tombstoned lanes
// are skipped WITHOUT consulting the filter -- the IdFilter contract
// promises predicates are only called on live candidate ids (a caller may
// key its predicate off live-only metadata), and the kernel's dead fold
// drops those lanes regardless of their allow bit. Lanes past `count` stay
// clear (tail padding, masked out again inside the kernel). `*filtered` is
// advanced by the number of live lanes the filter excluded.
std::uint32_t FilterBlockMask(const IdFilter& filter,
                              const std::uint32_t* ids, std::size_t count,
                              const std::uint8_t* dead,
                              std::size_t* filtered) {
  std::uint32_t allow = 0;
  std::size_t dropped = 0;
  for (std::size_t k = 0; k < count; ++k) {
    if (dead != nullptr && dead[k] != 0) continue;
    if (filter.Allows(ids[k])) {
      allow |= 1u << k;
    } else {
      ++dropped;
    }
  }
  *filtered += dropped;
  return allow;
}

using TraceClock = std::chrono::steady_clock;

inline std::uint64_t NanosSince(TraceClock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(TraceClock::now() -
                                                           start)
          .count());
}

// Estimator-health accumulation at the kErrorBound re-rank sites: both the
// estimate and the eps0 lower bound are already in the scratch buffers and
// the exact distance was just computed, so the live bound-violation /
// bias / tightness telemetry costs a handful of flops per RE-RANKED
// candidate (a tiny fraction of codes scanned) on top of a full exact
// distance -- never a measurable hot-path cost.
// Scores ascend under every metric (negated inner products for IP/cosine),
// so "exact < lb" is a bound violation in the same sense everywhere. Both
// relative stats normalize the GAP by |exact|: tightness is
// 1 - (exact - lb)/|exact|, which equals the historical lb/exact whenever
// exact > 0 (all of kL2) but keeps its "1 = bound hugging the true score,
// smaller = slacker" reading when IP/cosine scores go negative -- dividing
// lb by a signed exact there flipped the gauge's direction, reporting
// slack bounds as tightness > 1 and tight bounds as < 1.
inline void AccumulateRerankHealth(float est, float lb, float exact,
                                   IvfSearchStats* stats) {
  stats->rerank_bound_violations += exact < lb;
  if (exact != 0.0f) {
    ++stats->rerank_health_samples;
    const double inv = 1.0 / std::abs(static_cast<double>(exact));
    stats->rerank_signed_err_sum +=
        (static_cast<double>(est) - static_cast<double>(exact)) * inv;
    stats->rerank_tightness_sum +=
        1.0 - (static_cast<double>(exact) - static_cast<double>(lb)) * inv;
  }
}

// Cosine ingest: copy-and-normalize one vector, failing closed on a
// zero-norm input (its direction -- the only thing cosine sees -- is
// undefined).
Status NormalizeForCosine(const float* vec, std::size_t dim,
                          std::vector<float>* out) {
  out->assign(vec, vec + dim);
  if (NormalizeInPlace(out->data(), dim) == 0.0f) {
    return Status::InvalidArgument("zero-norm vector under cosine metric");
  }
  return Status::Ok();
}

}  // namespace

Status CheckFinite(const float* vec, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(vec[i])) {
      return Status::InvalidArgument("non-finite vector coordinate");
    }
  }
  return Status::Ok();
}

Status IvfRabitqIndex::Build(const Matrix& data, const IvfConfig& ivf_config,
                             const RabitqConfig& rabitq_config) {
  if (data.rows() == 0) return Status::InvalidArgument("empty dataset");
  RABITQ_RETURN_IF_ERROR(ValidateMetric(ivf_config.metric));
  RABITQ_RETURN_IF_ERROR(CheckFinite(data.data(), data.size()));
  // kCosine normalizes the dataset BEFORE clustering so the centroids live
  // in the same unit-sphere space as the stored vectors (cosine over the
  // normalized copies IS inner product); a zero-norm row fails the build.
  Matrix normalized;
  const Matrix* build_data = &data;
  if (ivf_config.metric == Metric::kCosine) {
    normalized.Reset(data.rows(), data.cols());
    for (std::size_t i = 0; i < data.rows(); ++i) {
      std::copy_n(data.Row(i), data.cols(), normalized.Row(i));
      if (NormalizeInPlace(normalized.Row(i), data.cols()) == 0.0f) {
        return Status::InvalidArgument("zero-norm vector under cosine metric");
      }
    }
    build_data = &normalized;
  }
  KMeansConfig kmeans = ivf_config.kmeans;
  kmeans.num_clusters = std::min(ivf_config.num_lists, data.rows());
  KMeansResult clustering;
  RABITQ_RETURN_IF_ERROR(RunKMeans(*build_data, kmeans, &clustering));
  return BuildFromClustering(*build_data, std::move(clustering.centroids),
                             clustering.assignments.data(), rabitq_config,
                             ivf_config.metric);
}

Status IvfRabitqIndex::BuildFromClustering(const Matrix& data, Matrix centroids,
                                           const std::uint32_t* assignments,
                                           const RabitqConfig& rabitq_config,
                                           Metric metric) {
  if (data.rows() == 0) return Status::InvalidArgument("empty dataset");
  RABITQ_RETURN_IF_ERROR(ValidateMetric(metric));
  RABITQ_RETURN_IF_ERROR(CheckFinite(data.data(), data.size()));
  metric_ = metric;
  if (centroids.rows() == 0 || centroids.cols() != data.cols()) {
    return Status::InvalidArgument("bad centroid matrix");
  }
  if (assignments == nullptr) {
    return Status::InvalidArgument("null assignments");
  }
  for (std::size_t i = 0; i < data.rows(); ++i) {
    if (assignments[i] >= centroids.rows()) {
      return Status::InvalidArgument("assignment out of range");
    }
  }
  data_.Assign(data);
  centroids_ = std::move(centroids);

  RABITQ_RETURN_IF_ERROR(encoder_.Init(data.cols(), rabitq_config));

  // Precompute P^T c per list (shares the query rotation across clusters).
  rotated_centroids_.Reset(centroids_.rows(), encoder_.total_bits());
  for (std::size_t l = 0; l < centroids_.rows(); ++l) {
    encoder_.rotator().InverseRotate(centroids_.Row(l),
                                     rotated_centroids_.Row(l));
  }

  // Bucket membership, then per-list encoding (parallel across lists).
  lists_.assign(centroids_.rows(), List{});
  for (std::size_t i = 0; i < data.rows(); ++i) {
    lists_[assignments[i]].ids.push_back(static_cast<std::uint32_t>(i));
  }
  Status worker_status = Status::Ok();
  std::mutex status_mutex;
  GlobalThreadPool().ParallelFor(
      lists_.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t l = begin; l < end; ++l) {
          List& list = lists_[l];
          list.codes.Init(encoder_.total_bits(), metric_,
                          encoder_.config().bits_per_dim);
          list.codes.Reserve(list.ids.size());
          for (const std::uint32_t id : list.ids) {
            const Status s = encoder_.EncodeAppend(data.Row(id),
                                                   centroids_.Row(l),
                                                   &list.codes);
            if (!s.ok()) {
              std::lock_guard<std::mutex> lock(status_mutex);
              worker_status = s;
              return;
            }
          }
          list.dead.assign(list.ids.size(), 0);
        }
      },
      /*min_chunk=*/1);
  if (!worker_status.ok()) return worker_status;

  // Every id starts live, positioned where bucketing put it.
  const std::size_t n = data.rows();
  id_live_.assign(n, 1);
  id_to_list_.assign(n, 0);
  id_to_pos_.assign(n, 0);
  live_count_ = n;
  num_tombstones_ = 0;
  for (std::size_t l = 0; l < lists_.size(); ++l) {
    for (std::size_t p = 0; p < lists_[l].ids.size(); ++p) {
      id_to_list_[lists_[l].ids[p]] = static_cast<std::uint32_t>(l);
      id_to_pos_[lists_[l].ids[p]] = static_cast<std::uint32_t>(p);
    }
  }
  return Status::Ok();
}

void IvfRabitqIndex::ProbeOrderInto(
    const float* query, std::size_t nprobe,
    std::vector<std::pair<float, std::uint32_t>>* out) const {
  out->resize(centroids_.rows());
  // Metric-aware probe key: squared distance under kL2, negated centroid
  // inner product under kInnerProduct/kCosine (probe the lists whose
  // centroid scores best under the index's own metric).
  for (std::size_t l = 0; l < centroids_.rows(); ++l) {
    (*out)[l] = {MetricDistance(metric_, centroids_.Row(l), query, dim()),
                 static_cast<std::uint32_t>(l)};
  }
  if (nprobe >= out->size()) {
    std::sort(out->begin(), out->end());
    return;
  }
  // Select the nprobe nearest, then order only them. The pair comparison is
  // a total order (list ids are unique), so this prefix is identical to the
  // full sort's.
  std::nth_element(out->begin(), out->begin() + nprobe, out->end());
  std::sort(out->begin(), out->begin() + nprobe);
}

SearchResponse IvfRabitqIndex::Search(const SearchRequest& request) const {
  SearchResponse response;
  IvfSearchScratch scratch;
  SearchOptions options = request.options;
  options.ResolveDeadline(std::chrono::steady_clock::now());
  response.status = SearchWithScratch(request.query, nullptr, options,
                                      options.seed.value_or(0), &scratch,
                                      &response.neighbors, &response.stats);
  // A bare index is its own single "shard": a deadline trip degrades to
  // partial results, any other failure fails the response outright.
  response.partial = response.status.code() == StatusCode::kDeadlineExceeded;
  response.shards_ok = response.status.ok() || response.partial ? 1 : 0;
  return response;
}

Status IvfRabitqIndex::SearchWithScratch(const float* query,
                                         const float* rotated_query,
                                         const SearchOptions& params,
                                         std::uint64_t seed,
                                         IvfSearchScratch* scratch,
                                         std::vector<Neighbor>* out,
                                         IvfSearchStats* stats) const {
  if (out == nullptr || scratch == nullptr) {
    return Status::InvalidArgument("null output/scratch");
  }
  if (query == nullptr) return Status::InvalidArgument("null query");
  if (params.k == 0) return Status::InvalidArgument("k must be positive");
  RABITQ_RETURN_IF_ERROR(CheckFinite(query, dim()));
  // kCosine: normalize the query WHERE it gets rotated (the contract of
  // SearchWithScratch): a caller passing a precomputed rotation guarantees
  // `query` is already unit-normalized, so normalizing again here would
  // break bit-parity with that caller. Everything below -- probe order,
  // preprocessing, exact re-rank -- sees the normalized pointer.
  if (metric_ == Metric::kCosine && rotated_query == nullptr) {
    scratch->norm_query.assign(query, query + dim());
    if (NormalizeInPlace(scratch->norm_query.data(), dim()) == 0.0f) {
      return Status::InvalidArgument("zero-norm query under cosine metric");
    }
    query = scratch->norm_query.data();
  }
  const float epsilon0 = params.epsilon0_override >= 0.0f
                             ? params.epsilon0_override
                             : encoder_.config().epsilon0;
  // Per-stage tracing: null for untraced queries (one branch per stage, no
  // clock reads). The scan span is measured as (whole list loop) minus the
  // re-rank time accumulated inside it, so scan + rerank tile the loop.
  obs::QueryTrace* const trace = scratch->trace;
  TraceClock::time_point span_start;
  if (trace != nullptr) span_start = TraceClock::now();
  ProbeOrderInto(query, params.nprobe, &scratch->probe_order);
  if (trace != nullptr) {
    trace->AddNanos(obs::Stage::kProbeOrder, NanosSince(span_start));
  }
  const auto& order = scratch->probe_order;
  const std::size_t nprobe = std::min(params.nprobe, order.size());

  // Rotate the query ONCE; each probed list reuses it (Section 3.3's shared
  // preprocessing, made explicit by PrepareQueryFromRotated). Serving-engine
  // callers pass the row of a batched rotation instead (and attribute the
  // batched rotation to kPreprocess themselves).
  if (rotated_query == nullptr) {
    if (trace != nullptr) span_start = TraceClock::now();
    scratch->rotated_query.resize(encoder_.total_bits());
    RotateQueryOnce(encoder_, query, scratch->rotated_query.data());
    rotated_query = scratch->rotated_query.data();
    if (trace != nullptr) {
      trace->AddNanos(obs::Stage::kPreprocess, NanosSince(span_start));
    }
  }

  // ||q||^2 feeds the per-query half of the IP/cosine score base
  // (QuantizedQuery::q_base); computed once, not per probed list.
  const float query_norm_sq =
      metric_ == Metric::kL2 ? 0.0f : SquaredNorm(query, dim());

  // Cooperative cancellation: deadline-free queries (the overwhelmingly
  // common case) never read the clock or touch `deadline_check`, so their
  // scan is instruction-for-instruction the pre-deadline scan -- the
  // bit-identical contract survives the plumbing. Armed queries pay one
  // clock read per probed list plus one per kDeadlineCheckBlocks blocks.
  const bool has_deadline = params.deadline != SearchOptions::kNoDeadline;
  const auto deadline = params.deadline;
  bool deadline_hit = false;
  std::uint32_t deadline_check = 0;
  constexpr std::uint32_t kDeadlineCheckBlocks = 16;

  IvfSearchStats local_stats;
  TopKHeap exact_heap(params.k);
  // For the fixed-candidates and no-rerank policies: (estimate, id) pool.
  std::vector<Neighbor>& estimate_pool = scratch->estimate_pool;
  estimate_pool.clear();

  std::vector<float>& est_buf = scratch->est_buf;
  std::vector<float>& lb_buf = scratch->lb_buf;
  QuantizedQuery& qq = scratch->query;
  const bool rerank = params.policy == RerankPolicy::kErrorBound;
  // Per-query predicate, pushed INTO candidate selection: the block loop
  // folds it into the kernel's survivors mask next to the tombstones, so a
  // filtered-out code never reaches exact re-ranking or the estimate pool
  // and no post-hoc pass exists.
  const IdFilter& filter = params.filter;
  const bool filtering = filter.active();

  // One block-padded sizing per search instead of one resize per probed
  // list: the fused kernel stores whole 32-lane blocks, so the buffers are
  // padded up to the block multiple of the largest probed list.
  std::size_t max_entries = 0;
  for (std::size_t p = 0; p < nprobe; ++p) {
    max_entries = std::max(max_entries, lists_[order[p].second].ids.size());
  }
  const std::size_t padded =
      (max_entries + kFastScanBlockSize - 1) / kFastScanBlockSize *
      kFastScanBlockSize;
  est_buf.resize(padded);
  lb_buf.resize(padded);
  // A multi-bit index refines through a second stage under every policy:
  // kErrorBound re-estimates the stage-1 survivors and prunes again; the
  // estimate-only policies rank by the code's full width (the extra planes
  // exist precisely so the estimate can stand in for the exact distance),
  // so every live allowed lane is refined. The stage-2 bounds get their own
  // buffer: stage 2 overwrites est_buf at candidate lanes, but the walk
  // re-checks BOTH stages' bounds.
  const bool multi = encoder_.config().bits_per_dim > 1;
  std::vector<float>& mlb_buf = scratch->mlb_buf;
  if (multi) mlb_buf.resize(padded);

  // Scan span = (list loop + result extraction) minus the re-rank and
  // per-list query preparation time accumulated inside; the three stages
  // tile the post-preprocess pipeline.
  TraceClock::time_point scan_start;
  std::uint64_t rerank_ns = 0;
  std::uint64_t prepare_ns = 0;
  if (trace != nullptr) scan_start = TraceClock::now();

  for (std::size_t p = 0; p < nprobe; ++p) {
    RABITQ_FAILPOINT("ivf.scan_deadline", deadline_hit = true);
    if (deadline_hit ||
        (has_deadline && std::chrono::steady_clock::now() >= deadline)) {
      deadline_hit = true;
      break;
    }
    const std::uint32_t list_id = order[p].second;
    const List& list = lists_[list_id];
    if (list.ids.empty()) continue;
    ++local_stats.lists_probed;
    // Per-list rounding seed: a pure function of (query seed, list id), so
    // the quantized query of a list is identical no matter which shard of a
    // sharded index holds it or in what order lists are probed.
    Rng list_rng(MixSeed(seed, list_id));
    // q_dist = ||q - c||. Under kL2 the probe key IS the squared distance;
    // under IP/cosine the key is a negated dot product, so the residual
    // norm is computed here (one extra O(dim) pass per PROBED list).
    const float q_dist =
        metric_ == Metric::kL2
            ? std::sqrt(std::max(0.0f, order[p].first))
            : std::sqrt(std::max(
                  0.0f, L2SqrDistance(query, centroids_.Row(list_id), dim())));
    if (trace != nullptr) span_start = TraceClock::now();
    RABITQ_RETURN_IF_ERROR(PrepareQueryFromRotated(
        encoder_, rotated_query, rotated_centroids_.Row(list_id), q_dist,
        &list_rng, &qq, /*query_bits_override=*/0, metric_, query_norm_sq));
    if (trace != nullptr) prepare_ns += NanosSince(span_start);
    const std::size_t n = list.ids.size();
    local_stats.codes_estimated += n;

    // Scan + selection (paper Section 4 made branch-free): per block,
    // assemble estimates + lower bounds 8 lanes at a time and fold the
    // tombstones and the filter into the kernel's survivors mask. A dead
    // entry (deleted id or stale pre-Update code) is estimated -- blocks
    // are contiguous -- but never survives. Under kErrorBound the kernel
    // also prunes against the current k-th best exact distance and the
    // survivors are re-ranked; the estimate-only policies prune nothing
    // (+inf) and pool every survivor's estimate.
    const std::uint8_t* dead_base =
        list.num_dead > 0 ? list.dead.data() : nullptr;
    const std::size_t num_blocks =
        (n + kFastScanBlockSize - 1) / kFastScanBlockSize;
    std::uint32_t sums[kFastScanBlockSize];
    for (std::size_t block = 0; block < num_blocks; ++block) {
      if (has_deadline &&
          ++deadline_check % kDeadlineCheckBlocks == 0 &&
          std::chrono::steady_clock::now() >= deadline) {
        deadline_hit = true;
        break;
      }
      const std::size_t begin = block * kFastScanBlockSize;
      const std::size_t count = std::min(kFastScanBlockSize, n - begin);
      PrefetchBlockData(list.codes, block + 1);
      // The filter's allow mask rides into the kernel as lane_mask; a
      // fully-disallowed block skips even the sum accumulation.
      std::uint32_t allow_mask = 0xFFFFFFFFu;
      if (filtering) {
        allow_mask = FilterBlockMask(
            filter, list.ids.data() + begin, count,
            dead_base == nullptr ? nullptr : dead_base + begin,
            &local_stats.codes_filtered);
        if (allow_mask == 0) continue;
      }
      // The fast-scan LUT kernel when the query's u8 LUTs are lossless
      // (B_q <= 6), B_q bitwise passes per lane otherwise: the same integer
      // <x_b, q-bar_u> either way, so everything below is shared.
      AccumulateBlockSums(qq, list.codes, block, sums);
      // +infinity (not FLT_MAX) under the estimate-only policies and while
      // the heap is filling: nothing compares greater than inf, so even a
      // lower bound that overflowed to +inf survives the kernel, and the
      // walk's `full() &&` re-check never prunes while filling either.
      const float threshold = rerank && exact_heap.full()
                                  ? exact_heap.Threshold()
                                  : std::numeric_limits<float>::infinity();
      std::uint32_t survivors = EstimateBlockFusedPruned(
          qq, list.codes, block, sums, epsilon0, threshold,
          dead_base == nullptr ? nullptr : dead_base + begin,
          est_buf.data() + begin, rerank ? lb_buf.data() + begin : nullptr,
          allow_mask);
      // Stage 2 for multi-bit codes: the survivors are re-estimated from
      // the full B_d-bit code and pruned again against the same snapshot
      // threshold. est_buf now holds the tighter stage-2 estimates at
      // candidate lanes; mlb_buf their bounds, with lb_buf keeping the
      // stage-1 bounds for the walk's live re-check of both stages.
      if (multi && survivors != 0) {
        local_stats.codes_refined +=
            static_cast<std::size_t>(std::popcount(survivors));
        // Reuses the sign-plane sums; only the extra planes are scanned.
        std::uint32_t msums[kFastScanBlockSize];
        AccumulateMultiBlockSums(qq, list.codes, block, sums, msums);
        survivors = EstimateBlockMultiPruned(
            qq, list.codes, block, msums, epsilon0, threshold, survivors,
            est_buf.data() + begin, mlb_buf.data() + begin);
      }
      if (!rerank) {
        for (; survivors != 0; survivors &= survivors - 1) {
          const std::size_t i = begin + std::countr_zero(survivors);
          estimate_pool.emplace_back(est_buf[i], list.ids[i]);
        }
        continue;
      }
      // Each survivor is re-checked against the LIVE threshold (it tightens
      // within a block as candidates are pushed), so the re-ranked set is
      // element-for-element what a per-entry loop would re-rank.
      const bool time_rerank = trace != nullptr && survivors != 0;
      if (time_rerank) span_start = TraceClock::now();
      while (survivors != 0) {
        const unsigned lane = std::countr_zero(survivors);
        survivors &= survivors - 1;
        const std::size_t i = begin + lane;
        if (exact_heap.full() && lb_buf[i] > exact_heap.Threshold()) {
          continue;
        }
        if (multi && exact_heap.full() &&
            mlb_buf[i] > exact_heap.Threshold()) {
          continue;
        }
        const std::uint32_t id = list.ids[i];
        const float exact =
            MetricDistance(metric_, data_.Row(id), query, dim());
        exact_heap.Push(exact, id);
        ++local_stats.candidates_reranked;
        AccumulateRerankHealth(est_buf[i], multi ? mlb_buf[i] : lb_buf[i],
                               exact, &local_stats);
      }
      if (time_rerank) rerank_ns += NanosSince(span_start);
    }
    if (deadline_hit) break;
  }

  if (params.policy == RerankPolicy::kErrorBound) {
    *out = exact_heap.ExtractSorted();
  } else if (params.policy == RerankPolicy::kFixedCandidates) {
    const std::size_t keep =
        std::min(std::max(params.rerank_candidates, params.k),
                 estimate_pool.size());
    std::partial_sort(estimate_pool.begin(), estimate_pool.begin() + keep,
                      estimate_pool.end());
    if (trace != nullptr) span_start = TraceClock::now();
    for (std::size_t i = 0; i < keep; ++i) {
      const std::uint32_t id = estimate_pool[i].second;
      exact_heap.Push(MetricDistance(metric_, data_.Row(id), query, dim()), id);
    }
    if (trace != nullptr) rerank_ns += NanosSince(span_start);
    local_stats.candidates_reranked = keep;
    *out = exact_heap.ExtractSorted();
  } else {
    const std::size_t keep = std::min(params.k, estimate_pool.size());
    std::partial_sort(estimate_pool.begin(), estimate_pool.begin() + keep,
                      estimate_pool.end());
    // Copy (not move) so the pool's capacity stays with the scratch.
    out->assign(estimate_pool.begin(), estimate_pool.begin() + keep);
  }
  if (trace != nullptr) {
    const std::uint64_t total_ns = NanosSince(scan_start);
    const std::uint64_t inner_ns = rerank_ns + prepare_ns;
    trace->AddNanos(obs::Stage::kScan,
                    total_ns > inner_ns ? total_ns - inner_ns : 0);
    trace->AddNanos(obs::Stage::kRerank, rerank_ns);
    trace->AddNanos(obs::Stage::kQueryPrepare, prepare_ns);
  }
  if (stats != nullptr) *stats = local_stats;
  // The extraction above ran regardless: a deadline trip returns everything
  // gathered before the stop (possibly fewer than k, possibly empty), and
  // the caller flags the response partial.
  if (deadline_hit) {
    return Status::DeadlineExceeded("query deadline exceeded mid-scan");
  }
  return Status::Ok();
}

Status IvfRabitqIndex::AppendToNearestList(std::uint32_t id,
                                           const float* vec) {
  const std::uint32_t list_id = NearestCentroid(vec, centroids_);
  List& list = lists_[list_id];
  RABITQ_RETURN_IF_ERROR(
      encoder_.EncodeAppend(vec, centroids_.Row(list_id), &list.codes));
  list.ids.push_back(id);
  list.dead.push_back(0);
  ++list.generation;
  id_to_list_[id] = list_id;
  id_to_pos_[id] = static_cast<std::uint32_t>(list.ids.size() - 1);
  return Status::Ok();
}

Status IvfRabitqIndex::Add(const float* vec, std::uint32_t* id_out) {
  if (vec == nullptr) return Status::InvalidArgument("null vector");
  if (lists_.empty()) return Status::FailedPrecondition("index not built");
  RABITQ_RETURN_IF_ERROR(CheckFinite(vec, dim()));
  // kCosine stores the normalized vector (same as Build), so re-rank and
  // the estimator see unit data no matter how the vector arrived.
  std::vector<float> normalized;
  if (metric_ == Metric::kCosine) {
    RABITQ_RETURN_IF_ERROR(NormalizeForCosine(vec, dim(), &normalized));
    vec = normalized.data();
  }
  const std::uint32_t id = data_.Append(vec);
  // The id turns live only once its list entry exists; on append failure it
  // stays permanently dead (IsDeleted == true), never a dangling mapping.
  id_live_.push_back(0);
  id_to_list_.push_back(0);
  id_to_pos_.push_back(0);
  RABITQ_RETURN_IF_ERROR(AppendToNearestList(id, vec));
  id_live_[id] = 1;
  ++live_count_;
  if (id_out != nullptr) *id_out = id;
  return Status::Ok();
}

Status IvfRabitqIndex::Delete(std::uint32_t id) {
  if (lists_.empty()) return Status::FailedPrecondition("index not built");
  if (IsDeleted(id)) return Status::NotFound("id not live");
  List& list = lists_[id_to_list_[id]];
  list.dead[id_to_pos_[id]] = 1;
  ++list.num_dead;
  ++list.generation;
  id_live_[id] = 0;
  --live_count_;
  ++num_tombstones_;
  return Status::Ok();
}

Status IvfRabitqIndex::Update(std::uint32_t id, const float* vec) {
  if (vec == nullptr) return Status::InvalidArgument("null vector");
  if (lists_.empty()) return Status::FailedPrecondition("index not built");
  if (IsDeleted(id)) return Status::NotFound("id not live");
  RABITQ_RETURN_IF_ERROR(CheckFinite(vec, dim()));
  // Normalize FIRST (and fail closed) so a zero-norm update under cosine
  // leaves the index untouched rather than half-tombstoned.
  std::vector<float> normalized;
  if (metric_ == Metric::kCosine) {
    RABITQ_RETURN_IF_ERROR(NormalizeForCosine(vec, dim(), &normalized));
    vec = normalized.data();
  }
  // Tombstone the stale entry, then re-encode against the (possibly new)
  // nearest centroid. The id itself stays live throughout.
  List& old_list = lists_[id_to_list_[id]];
  old_list.dead[id_to_pos_[id]] = 1;
  ++old_list.num_dead;
  ++old_list.generation;
  ++num_tombstones_;
  data_.OverwriteRow(id, vec);
  return AppendToNearestList(id, vec);
}

std::vector<std::uint32_t> IvfRabitqIndex::ListsNeedingCompaction(
    float min_ratio, std::size_t min_dead) const {
  std::vector<std::uint32_t> out;
  for (std::size_t l = 0; l < lists_.size(); ++l) {
    const List& list = lists_[l];
    if (list.num_dead == 0 || list.num_dead < min_dead) continue;
    const float ratio = static_cast<float>(list.num_dead) /
                        static_cast<float>(list.ids.size());
    if (ratio >= min_ratio) out.push_back(static_cast<std::uint32_t>(l));
  }
  return out;
}

Status IvfRabitqIndex::PlanListCompaction(std::uint32_t list_id,
                                          IvfCompactionPlan* plan) const {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  if (list_id >= lists_.size()) return Status::InvalidArgument("bad list id");
  const List& list = lists_[list_id];
  plan->list_id = list_id;
  plan->list_generation = list.generation;
  plan->ids.clear();
  plan->ids.reserve(list.ids.size() - list.num_dead);
  for (std::size_t p = 0; p < list.ids.size(); ++p) {
    if (!list.dead[p]) plan->ids.push_back(list.ids[p]);
  }
  list.codes.CompactInto(list.dead.data(), &plan->codes);
  return Status::Ok();
}

Status IvfRabitqIndex::CommitListCompaction(IvfCompactionPlan&& plan) {
  if (plan.list_id >= lists_.size()) {
    return Status::InvalidArgument("bad list id");
  }
  List& list = lists_[plan.list_id];
  if (list.generation != plan.list_generation) {
    return Status::FailedPrecondition("stale compaction plan");
  }
  num_tombstones_ -= list.num_dead;
  list.ids = std::move(plan.ids);
  list.codes = std::move(plan.codes);
  list.dead.assign(list.ids.size(), 0);
  list.num_dead = 0;
  ++list.generation;
  for (std::size_t p = 0; p < list.ids.size(); ++p) {
    id_to_pos_[list.ids[p]] = static_cast<std::uint32_t>(p);
  }
  return Status::Ok();
}

Status IvfRabitqIndex::Compact(float min_ratio, std::size_t min_dead) {
  for (const std::uint32_t l : ListsNeedingCompaction(min_ratio, min_dead)) {
    IvfCompactionPlan plan;
    RABITQ_RETURN_IF_ERROR(PlanListCompaction(l, &plan));
    RABITQ_RETURN_IF_ERROR(CommitListCompaction(std::move(plan)));
  }
  return Status::Ok();
}

}  // namespace rabitq
