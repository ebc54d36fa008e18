#include "engine/search_engine.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "linalg/vector_ops.h"
#include "util/failpoint.h"
#include "util/prng.h"

namespace rabitq {

SearchEngine::SearchEngine(ShardedIndex index, const EngineConfig& config)
    : index_(std::move(index)),
      dim_(index_.dim()),
      metric_(index_.metric()),
      bits_per_dim_(index_.bits_per_dim()),
      config_(config),
      pool_(config.num_threads),
      worker_scratch_(pool_.num_threads()),
      stats_(&metrics_),
      queue_(config.max_queue_depth) {
  for (int s = 0; s < obs::kNumStages; ++s) {
    stage_hist_[s] = metrics_.GetHistogram(
        std::string("rabitq_stage_") +
            obs::StageName(static_cast<obs::Stage>(s)) + "_us",
        std::string("Per-query ") +
            obs::StageName(static_cast<obs::Stage>(s)) +
            " time in microseconds (sampled traces)");
  }
  compaction_pass_seconds_ = metrics_.GetHistogram(
      "rabitq_compaction_pass_seconds",
      "Wall time of background/explicit compaction passes that did work");
  compaction_codes_reclaimed_ = metrics_.GetCounter(
      "rabitq_compaction_codes_reclaimed_total",
      "Tombstoned code entries dropped by list compactions");
  traced_queries_ = metrics_.GetCounter("rabitq_traced_queries_total",
                                        "Queries with a sampled trace");
  gauge_live_vectors_ =
      metrics_.GetGauge("rabitq_live_vectors", "Live (non-deleted) vectors");
  gauge_tombstones_ = metrics_.GetGauge(
      "rabitq_tombstones", "Tombstoned list entries awaiting compaction");
  gauge_epoch_ = metrics_.GetGauge("rabitq_epoch", "Index mutation epoch");
  gauge_shards_ = metrics_.GetGauge("rabitq_num_shards", "Index shards");
  gauge_violation_rate_ = metrics_.GetGauge(
      "rabitq_eps0_violation_rate",
      "Observed share of re-ranked candidates violating the eps0 bound");
  gauge_signed_err_mean_ = metrics_.GetGauge(
      "rabitq_rerank_signed_err_mean",
      "Mean signed relative error of the estimate at re-rank");
  gauge_tightness_mean_ = metrics_.GetGauge(
      "rabitq_rerank_tightness_mean",
      "Mean lower_bound / exact distance ratio at re-rank");
  for (std::size_t s = 0; s < index_.num_shards(); ++s) {
    sync_.push_back(std::make_unique<ShardSync>());
  }
  scheduler_ = std::thread([this] { SchedulerLoop(); });
  compactor_ = std::thread([this] { CompactorLoop(); });
}

SearchEngine::SearchEngine(IvfRabitqIndex index, const EngineConfig& config)
    : SearchEngine(ShardedIndex::FromSingle(std::move(index)), config) {}

SearchEngine::~SearchEngine() { Drain(); }

void SearchEngine::Drain() {
  queue_.Close();  // PopBatch drains what was accepted, then returns false
  if (scheduler_.joinable()) scheduler_.join();
  {
    std::lock_guard<std::mutex> lock(compactor_mutex_);
    compactor_stop_ = true;
  }
  compactor_cv_.notify_all();
  if (compactor_.joinable()) compactor_.join();
}

std::size_t SearchEngine::size() const { return index_.size(); }

std::size_t SearchEngine::live_size() const {
  std::size_t live = 0;
  for (std::size_t s = 0; s < index_.num_shards(); ++s) {
    std::shared_lock<std::shared_mutex> lock(sync_[s]->index_mutex);
    live += index_.shard(s).live_size();
  }
  return live;
}

std::uint64_t SearchEngine::QuerySeed(std::uint64_t base,
                                      std::uint64_t ticket) {
  return MixSeed(base, ticket);
}

void SearchEngine::ExecuteBatch(std::vector<QueuedQuery>* batch) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  std::vector<QueuedQuery>& queued = *batch;
  const std::size_t n = queued.size();
  const std::size_t S = index_.num_shards();
  if (S == 0) {
    const Status unbuilt = Status::FailedPrecondition("engine index not built");
    for (QueuedQuery& q : queued) q.promise.set_value({unbuilt, {}, {}});
    return;
  }
  std::vector<SearchResponse> responses(n);

  // Deterministic trace sampling, decided before any work: a pure function
  // of each query's resolved seed, so the traced subset does not depend on
  // threads, shards or batch composition. batch_traces_[i] stays null for
  // untraced queries -- every downstream hook is then one branch, no clock.
  batch_traces_.assign(n, nullptr);
  bool any_traced = false;
  if (config_.trace_sample_period > 0) {
    if (n > trace_capacity_) {
      trace_storage_ = std::make_unique<obs::QueryTrace[]>(n);
      trace_capacity_ = n;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (obs::SampleTrace(queued[i].seed, config_.trace_sample_period)) {
        trace_storage_[i].Clear();
        batch_traces_[i] = &trace_storage_[i];
        any_traced = true;
      }
    }
  }

  // The whole batch runs against one consistent snapshot: shared locks on
  // every shard, so mutations run between batches (or overlap batches that
  // have already finished with their shard -- never mid-read).
  std::vector<std::shared_lock<std::shared_mutex>> read_locks;
  read_locks.reserve(S);
  for (std::size_t s = 0; s < S; ++s) {
    read_locks.emplace_back(sync_[s]->index_mutex);
  }

  // Gather and rotate every query with one matrix-matrix product -- the
  // per-query gemv this replaces is the dominant shared-preprocessing cost.
  Clock::time_point preprocess_start;
  if (any_traced) preprocess_start = Clock::now();
  const std::size_t d = index_.dim();
  gather_buf_.Reset(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    std::copy_n(queued[i].query.data(), d, gather_buf_.Row(i));
  }
  // Cosine normalizes where it rotates (the index contract for pre-rotated
  // queries). A query with a non-finite coordinate, or a zero-norm one
  // under cosine, fails per-query, not per-batch: its gather row rotates
  // to garbage (or zeros) that only its own cells would read, and those
  // cells are skipped below.
  std::vector<Status> query_status(n, Status::Ok());
  for (std::size_t i = 0; i < n; ++i) {
    query_status[i] = CheckFinite(gather_buf_.Row(i), d);
    if (query_status[i].ok() && metric_ == Metric::kCosine &&
        NormalizeInPlace(gather_buf_.Row(i), d) == 0.0f) {
      query_status[i] =
          Status::InvalidArgument("zero-norm query under cosine metric");
    }
  }
  index_.encoder().rotator().InverseRotateBatch(gather_buf_, &rotated_buf_);
  if (any_traced) {
    // The batched rotation is shared work; each sampled trace gets its
    // per-query share (batch duration / batch size).
    const std::uint64_t preprocess_ns =
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - preprocess_start)
                .count()) /
        n;
    for (std::size_t i = 0; i < n; ++i) {
      if (batch_traces_[i] != nullptr) {
        batch_traces_[i]->AddNanos(obs::Stage::kPreprocess, preprocess_ns);
      }
    }
  }

  // Scatter: (query x shard) cells fanned out over the pool, one contiguous
  // chunk per worker slot so chunk c exclusively owns worker_scratch_[c].
  const std::size_t cells = n * S;
  cell_status_.assign(cells, Status::Ok());
  cell_results_.resize(cells);
  cell_stats_.assign(cells, IvfSearchStats{});
  const std::size_t chunks = std::min(pool_.num_threads(), cells);
  const std::size_t per_chunk = (cells + chunks - 1) / chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * per_chunk;
    const std::size_t end = std::min(begin + per_chunk, cells);
    if (begin >= end) break;
    futures.push_back(pool_.SubmitTask([&, c, begin, end] {
      IvfSearchScratch& scratch = worker_scratch_[c].shard_scratch;
      for (std::size_t cell = begin; cell < end; ++cell) {
        const std::size_t q = cell / S;
        const std::size_t s = cell % S;
        // A sampled query's cells may run on several workers; its trace's
        // relaxed atomic accumulators absorb the concurrent span adds.
        if (!query_status[q].ok()) {
          cell_status_[cell] = query_status[q];
          continue;
        }
        scratch.trace = batch_traces_[q];
        // The gather row (normalized under cosine, a plain copy otherwise)
        // is the query the shards see -- exact re-ranks and the merge must
        // score against the SAME vector the estimates were prepared from.
        cell_status_[cell] = index_.SearchShard(
            s, gather_buf_.Row(q), rotated_buf_.Row(q), queued[q].options,
            queued[q].seed, &scratch, &cell_results_[cell], &cell_stats_[cell]);
      }
      scratch.trace = nullptr;
    }));
  }
  // Drain EVERY chunk before surfacing a failure: packaged_task futures do
  // not block on destruction, so rethrowing from the first get() would
  // unwind (releasing the shard locks, letting the next batch reuse the
  // cell buffers) while the remaining workers still write through them.
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);

  // Gather: per-query merge of the S shard cells into global results.
  futures.clear();
  const std::size_t merge_chunks = std::min(pool_.num_threads(), n);
  const std::size_t per_merge = (n + merge_chunks - 1) / merge_chunks;
  for (std::size_t c = 0; c < merge_chunks; ++c) {
    const std::size_t begin = c * per_merge;
    const std::size_t end = std::min(begin + per_merge, n);
    if (begin >= end) break;
    futures.push_back(pool_.SubmitTask([&, c, begin, end] {
      for (std::size_t q = begin; q < end; ++q) {
        // A query that failed validation before the scatter (zero-norm
        // under cosine) never ran any cell; everything else merges with the
        // per-shard statuses so a failed or out-of-time shard degrades the
        // query instead of failing it (see ShardedIndex::MergeShardResults).
        SearchResponse& response = responses[q];
        if (!query_status[q].ok()) {
          response.status = query_status[q];
          continue;
        }
        obs::ScopedSpan merge_span(batch_traces_[q], obs::Stage::kMerge);
        ShardMergeInfo info;
        response.status = index_.MergeShardResults(
            gather_buf_.Row(q), queued[q].options, &cell_results_[q * S],
            &cell_stats_[q * S], &worker_scratch_[c], &response.neighbors,
            &response.stats, &cell_status_[q * S], &info);
        response.partial = info.partial;
        response.shards_ok = info.shards_ok;
        response.shards_failed = info.shards_failed;
      }
    }));
  }
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  for (auto& lock : read_locks) lock.unlock();

  const Clock::time_point end = Clock::now();
  std::vector<double> latencies(n);
  std::size_t errors = 0;
  IvfSearchStats batch_stats;
  for (std::size_t i = 0; i < n; ++i) {
    const SearchResponse& response = responses[i];
    latencies[i] =
        std::chrono::duration<double, std::micro>(end - queued[i].submit_time)
            .count();
    if (!response.status.ok()) ++errors;
    if (response.status.code() == StatusCode::kDeadlineExceeded) {
      stats_.RecordDeadlineExceeded();
    }
    if (response.partial) stats_.RecordPartialResponse();
    if (response.shards_failed > 0) {
      stats_.RecordShardFailures(response.shards_failed);
    }
    batch_stats.Add(response.stats);
  }
  stats_.RecordBatch(n, latencies.data(), batch_stats, errors);

  // Fold the sampled traces into the per-stage histograms and hand them to
  // the optional sink (queue wait: submit -> batch start).
  if (any_traced) {
    for (std::size_t i = 0; i < n; ++i) {
      obs::QueryTrace* const trace = batch_traces_[i];
      if (trace == nullptr) continue;
      const std::int64_t wait_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              start - queued[i].submit_time)
              .count();
      if (wait_ns > 0) {
        trace->AddNanos(obs::Stage::kQueueWait,
                        static_cast<std::uint64_t>(wait_ns));
      }
      for (int s = 0; s < obs::kNumStages; ++s) {
        const std::uint64_t ns = trace->Nanos(static_cast<obs::Stage>(s));
        if (ns > 0) {
          stage_hist_[s]->Record(static_cast<double>(ns) * 1e-3);
        }
      }
      traced_queries_->Increment();
      if (config_.trace_sink) config_.trace_sink(queued[i].seed, *trace);
    }
  }

  // Promises last: a caller that wakes on its future already sees this
  // batch in the stats and its trace delivered to the sink.
  for (std::size_t i = 0; i < n; ++i) {
    queued[i].promise.set_value(std::move(responses[i]));
  }
}

namespace {

// A request as the scheduler sees it: the vector copied, the relative
// timeout resolved against the admission timestamp `now` (so queue time
// counts against the budget -- that is the point of shedding).
QueuedQuery MakeQueued(const SearchRequest& request, std::size_t dim,
                       std::uint64_t seed,
                       std::chrono::steady_clock::time_point now) {
  QueuedQuery queued;
  queued.query.assign(request.query, request.query + dim);
  queued.options = request.options;
  queued.options.ResolveDeadline(now);
  queued.seed = seed;
  queued.submit_time = now;
  return queued;
}

}  // namespace

Status SearchEngine::Admit(QueuedQuery* group, std::size_t n) {
  bool injected_full = false;
  RABITQ_FAILPOINT("engine.queue_push", injected_full = true);
  const RequestQueue::PushResult pushed =
      injected_full ? RequestQueue::PushResult::kFull : queue_.Push(group, n);
  if (pushed == RequestQueue::PushResult::kAccepted) return Status::Ok();
  Status refusal = Status::FailedPrecondition("engine is shutting down");
  if (pushed == RequestQueue::PushResult::kFull) {
    // Fail fast instead of queueing work the engine is too far behind to
    // serve in time.
    stats_.RecordRejected(n);
    refusal = Status::ResourceExhausted("request queue is full");
  }
  for (std::size_t i = 0; i < n; ++i) {
    group[i].promise.set_value({refusal, {}, {}});
  }
  return refusal;
}

Status SearchEngine::SearchBatch(const SearchRequest* requests,
                                 std::size_t num_requests,
                                 std::vector<SearchResponse>* responses) {
  if (responses == nullptr) {
    return Status::InvalidArgument("null responses");
  }
  responses->assign(num_requests, {});
  if (num_requests == 0) return Status::Ok();  // empty batch is a no-op
  if (requests == nullptr) {
    return Status::InvalidArgument("null requests");
  }
  // Per-response error contract: a null-query request fails through its own
  // response.status; the valid requests are admitted as ONE submission, and
  // their relative timeouts resolve against one admission timestamp.
  const auto now = std::chrono::steady_clock::now();
  std::vector<QueuedQuery> group;
  group.reserve(num_requests);
  std::vector<std::future<SearchResponse>> futures(num_requests);
  for (std::size_t i = 0; i < num_requests; ++i) {
    const SearchRequest& request = requests[i];
    if (request.query == nullptr) {
      (*responses)[i].status = Status::InvalidArgument("null query in request");
      continue;
    }
    // Auto-seed by BATCH POSITION, so a derived seed is independent of its
    // neighbors' validity.
    group.push_back(MakeQueued(
        request, dim(),
        request.options.seed.value_or(QuerySeed(config_.seed, i)), now));
    futures[i] = group.back().promise.get_future();
  }
  const Status admitted =
      group.empty() ? Status::Ok() : Admit(group.data(), group.size());
  for (std::size_t i = 0; i < num_requests; ++i) {
    if (futures[i].valid()) (*responses)[i] = futures[i].get();
  }
  if (!admitted.ok()) return admitted;
  for (const SearchResponse& response : *responses) {
    if (!response.status.ok()) return response.status;
  }
  return Status::Ok();
}

SearchResponse SearchEngine::Search(const SearchRequest& request) {
  // Every outcome, refusals included, lands in the one response.
  std::vector<SearchResponse> responses;
  (void)SearchBatch(&request, 1, &responses);
  return std::move(responses.front());
}

std::future<SearchResponse> SearchEngine::SubmitAsync(
    const SearchRequest& request) {
  if (request.query == nullptr) {
    std::promise<SearchResponse> failed;
    failed.set_value(
        {Status::InvalidArgument("null query in request"), {}, {}});
    return failed.get_future();
  }
  // Not value_or: its argument evaluates eagerly, and an explicitly-seeded
  // submission must NOT consume a ticket (the auto-seed stream of
  // interleaved unseeded submissions would shift otherwise).
  const std::uint64_t seed =
      request.options.seed.has_value()
          ? *request.options.seed
          : QuerySeed(config_.seed,
                      next_ticket_.fetch_add(1, std::memory_order_relaxed));
  QueuedQuery queued =
      MakeQueued(request, dim(), seed, std::chrono::steady_clock::now());
  std::future<SearchResponse> future = queued.promise.get_future();
  (void)Admit(&queued, 1);
  return future;
}

Status SearchEngine::Insert(const float* vec, std::uint32_t* id_out) {
  std::uint32_t id = 0, shard = 0;
  RABITQ_RETURN_IF_ERROR(index_.ReserveId(&id, &shard));
  Status status;
  {
    std::lock_guard<std::mutex> writer(sync_[shard]->writer_mutex);
    std::unique_lock<std::shared_mutex> write_lock(sync_[shard]->index_mutex);
    status = index_.CompleteAdd(id, shard, vec);
  }
  if (status.ok()) {
    epoch_.fetch_add(1, std::memory_order_release);
    stats_.RecordInsert();
    if (id_out != nullptr) *id_out = id;
  }
  return status;
}

bool SearchEngine::ListNeedsCompaction(std::uint32_t shard,
                                       std::uint32_t list_id) const {
  // Called under the shard's writer_mutex with no other writer of that
  // shard possible, so reading its list stats outside index_mutex is safe;
  // O(1), unlike a full ListsNeedingCompaction scan.
  if (config_.compaction_tombstone_ratio <= 0.0f) return false;
  const IvfRabitqIndex& s = index_.shard(shard);
  const std::size_t dead = s.list_tombstones(list_id);
  if (dead == 0 || dead < config_.compaction_min_dead) return false;
  return static_cast<float>(dead) >=
         config_.compaction_tombstone_ratio *
             static_cast<float>(s.list_ids(list_id).size());
}

Status SearchEngine::Delete(std::uint32_t id) {
  std::uint32_t shard = 0;
  if (!index_.TryShardOf(id, &shard)) return Status::NotFound("id not live");
  bool kick = false;
  Status status;
  {
    std::lock_guard<std::mutex> writer(sync_[shard]->writer_mutex);
    {
      std::unique_lock<std::shared_mutex> write_lock(sync_[shard]->index_mutex);
      status = index_.Delete(id);
    }
    if (status.ok()) {
      epoch_.fetch_add(1, std::memory_order_release);
      stats_.RecordDelete();
      // Delete leaves the local id pointing at the tombstoned entry's list.
      kick = ListNeedsCompaction(
          shard, index_.shard(shard).list_of(index_.local_of(id)));
    }
  }
  if (kick) KickCompactor();
  return status;
}

Status SearchEngine::Update(std::uint32_t id, const float* vec) {
  std::uint32_t shard = 0;
  if (!index_.TryShardOf(id, &shard)) return Status::NotFound("id not live");
  bool kick = false;
  Status status;
  {
    std::lock_guard<std::mutex> writer(sync_[shard]->writer_mutex);
    // The tombstone lands in the list currently holding the id; capture it
    // before Update repoints the shard's id->list mapping.
    const bool live = !index_.IsDeleted(id);
    const std::uint32_t old_list =
        live ? index_.shard(shard).list_of(index_.local_of(id)) : 0;
    {
      std::unique_lock<std::shared_mutex> write_lock(sync_[shard]->index_mutex);
      status = index_.Update(id, vec);
    }
    if (status.ok()) {
      epoch_.fetch_add(1, std::memory_order_release);
      stats_.RecordUpdate();
      kick = ListNeedsCompaction(shard, old_list);
    }
  }
  if (kick) KickCompactor();
  return status;
}

Status SearchEngine::CompactNow() {
  return RunCompactions(/*min_ratio=*/0.0f, /*min_dead=*/1);
}

Status SearchEngine::RunCompactions(float min_ratio, std::size_t min_dead) {
  Status first_error;
  const auto pass_start = std::chrono::steady_clock::now();
  std::size_t lists_done = 0;
  for (std::size_t shard = 0; shard < index_.num_shards(); ++shard) {
    std::vector<std::uint32_t> victims;
    {
      std::lock_guard<std::mutex> writer(sync_[shard]->writer_mutex);
      victims = index_.shard(shard).ListsNeedingCompaction(min_ratio, min_dead);
    }
    for (const std::uint32_t l : victims) {
      // The shard's writer_mutex is held per LIST, not across the pass: it
      // pins the list between plan (under the shared lock -- queries keep
      // executing) and commit (brief exclusive swap), while mutations of
      // this shard interleave between lists instead of stalling, and other
      // shards are never touched at all.
      std::lock_guard<std::mutex> writer(sync_[shard]->writer_mutex);
      IvfRabitqIndex* target = index_.mutable_shard(shard);
      // Tombstone count at plan time == entries the commit reclaims (the
      // commit fails closed if the list mutates in between).
      const std::size_t dead = target->list_tombstones(l);
      if (dead == 0) continue;  // mutated since selection
      IvfCompactionPlan plan;
      Status s;
      {
        std::shared_lock<std::shared_mutex> read_lock(sync_[shard]->index_mutex);
        s = target->PlanListCompaction(l, &plan);
      }
      if (s.ok()) {
        std::unique_lock<std::shared_mutex> write_lock(sync_[shard]->index_mutex);
        s = target->CommitListCompaction(std::move(plan));
      }
      if (s.ok()) {
        epoch_.fetch_add(1, std::memory_order_release);
        stats_.RecordCompaction();
        compaction_codes_reclaimed_->Add(dead);
        ++lists_done;
      } else if (first_error.ok()) {
        first_error = s;
      }
    }
  }
  // Idle scans (nothing selected) record no pass: the histogram measures
  // the cost of passes that did work, not the compactor's polling cadence.
  if (lists_done > 0) {
    compaction_pass_seconds_->Record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      pass_start)
            .count());
  }
  return first_error;
}

void SearchEngine::KickCompactor() {
  {
    std::lock_guard<std::mutex> lock(compactor_mutex_);
    compactor_kicked_ = true;
  }
  compactor_cv_.notify_one();
}

void SearchEngine::CompactorLoop() {
  std::unique_lock<std::mutex> lock(compactor_mutex_);
  for (;;) {
    compactor_cv_.wait(lock,
                       [this] { return compactor_kicked_ || compactor_stop_; });
    if (compactor_stop_) return;
    compactor_kicked_ = false;
    lock.unlock();
    RunCompactions(config_.compaction_tombstone_ratio,
                   config_.compaction_min_dead);
    lock.lock();
  }
}

EngineStatsSnapshot SearchEngine::Stats() const {
  EngineStatsSnapshot snap = stats_.Snapshot();
  snap.epoch = epoch();
  snap.num_shards = index_.num_shards();
  for (std::size_t s = 0; s < index_.num_shards(); ++s) {
    std::shared_lock<std::shared_mutex> lock(sync_[s]->index_mutex);
    snap.live_vectors += index_.shard(s).live_size();
    snap.tombstones += index_.shard(s).num_tombstones();
  }
  // Mirror the lifecycle and derived-health values into gauges so the
  // registry exports (Prometheus/JSON) carry them without recomputation.
  gauge_live_vectors_->Set(static_cast<double>(snap.live_vectors));
  gauge_tombstones_->Set(static_cast<double>(snap.tombstones));
  gauge_epoch_->Set(static_cast<double>(snap.epoch));
  gauge_shards_->Set(static_cast<double>(snap.num_shards));
  gauge_violation_rate_->Set(snap.eps0_violation_rate);
  gauge_signed_err_mean_->Set(snap.rerank_signed_err_mean);
  gauge_tightness_mean_->Set(snap.rerank_bound_tightness_mean);
  return snap;
}

obs::MetricsSnapshot SearchEngine::SnapshotMetrics() const {
  (void)Stats();  // refresh the lifecycle + derived-health gauges
  return metrics_.Snapshot();
}

Status SearchEngine::SaveSnapshot(const std::string& path) const {
  // Shared locks on every shard (ascending, matching ExecuteBatch's order):
  // the saved cut is consistent across shards, searches keep flowing, and
  // writers/compaction commits queue behind the write.
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(sync_.size());
  for (const auto& sync : sync_) locks.emplace_back(sync->index_mutex);
  return index_.Save(path);
}

void SearchEngine::SchedulerLoop() {
  std::vector<QueuedQuery> batch;
  std::vector<QueuedQuery> shed;
  while (queue_.PopBatch(config_.max_batch,
                         std::chrono::microseconds(config_.batch_linger_us),
                         &batch, &shed)) {
    // Shed queries fail without executing: their deadline expired while
    // they waited, so the kindest answer is an immediate one.
    for (QueuedQuery& dropped : shed) {
      stats_.RecordShed();
      SearchResponse response{
          Status::DeadlineExceeded("deadline expired while queued"), {}, {}};
      response.partial = true;
      dropped.promise.set_value(std::move(response));
    }
    if (batch.empty()) continue;  // everything popped this round was shed
    try {
      ExecuteBatch(&batch);
    } catch (...) {
      // No promise is resolved yet (ExecuteBatch resolves them last): every
      // caller gets the exception from get(), and the scheduler lives on.
      const std::exception_ptr error = std::current_exception();
      for (QueuedQuery& queued : batch) queued.promise.set_exception(error);
    }
  }
}

}  // namespace rabitq
