// IVF + RaBitQ, the in-memory ANN pipeline of paper Section 4. The index
// phase KMeans-clusters the raw vectors, normalizes each vector against its
// cluster centroid (the paper's normalization instantiation), and stores
// per-cluster RaBitQ code stores. The query phase probes the nprobe nearest
// clusters, estimates distances from the codes (fast-scan batches by
// default), and re-ranks with exact distances under one of two policies:
//   * kErrorBound (RaBitQ): re-rank iff the eps0 lower bound beats the
//     current k-th best exact distance -- the tuning-free rule of Section 4.
//   * kFixedCandidates (PQ-style): keep the `rerank_candidates` smallest
//     estimates, then re-rank those -- the baseline knob of Section 5.
//   * kNone: rank purely by estimated distances (Fig. 10 ablation).
//
// Beyond the paper's build-once protocol the index is fully mutable:
//   * Add appends a vector in amortized O(1) (chunked raw storage, an
//     incremental fast-scan repack of only the tail block);
//   * Delete tombstones an id -- codes stay in place, the search path skips
//     dead entries, so a delete is O(1) and never moves other vectors;
//   * Update overwrites the raw vector and re-encodes it into the list of
//     its (possibly new) nearest centroid, tombstoning the stale entry;
//   * list compaction drops a list's tombstones and repacks its code store,
//     split into a plan step (pure read, can run concurrently with
//     searches) and a commit step (an O(live-entries) swap that is the only
//     part needing exclusive access) -- see PlanListCompaction.

#ifndef RABITQ_INDEX_IVF_H_
#define RABITQ_INDEX_IVF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/kmeans.h"
#include "core/estimator.h"
#include "core/query.h"
#include "core/rabitq.h"
#include "index/brute_force.h"
#include "index/search_types.h"
#include "index/vector_store.h"
#include "obs/trace.h"
#include "util/prng.h"

namespace rabitq {

struct IvfConfig {
  std::size_t num_lists = 256;
  KMeansConfig kmeans;  // num_clusters is overwritten with num_lists
  /// Distance space of the index (kL2 / kInnerProduct / kCosine), validated
  /// at build and load (ValidateMetric) and persisted by snapshot v3. Under
  /// kCosine the index normalizes every ingested vector (Build, Add, Update)
  /// and each query once per search; zero-norm vectors are rejected. Scores
  /// are always ascending-is-better: negated inner products under
  /// kInnerProduct/kCosine (see core/metric.h).
  Metric metric = Metric::kL2;
};

/// InvalidArgument if any of the `n` coordinates of `vec` is NaN or +/-inf:
/// such a vector would poison every score it touches, so every ingest and
/// query path rejects it up front. Finite values of any magnitude pass.
Status CheckFinite(const float* vec, std::size_t n);

/// Reusable workspace for SearchWithScratch. Buffers reach steady-state
/// capacity after the first few queries, after which searches stop touching
/// the allocator -- the serving engine keeps one scratch per worker thread.
/// A scratch must never be shared by concurrent callers.
struct IvfSearchScratch {
  std::vector<std::pair<float, std::uint32_t>> probe_order;
  std::vector<float> rotated_query;
  /// Unit-normalized copy of the query, filled only under kCosine when the
  /// caller did not pass a rotated query (the normalize-where-you-rotate
  /// contract; see SearchWithScratch).
  std::vector<float> norm_query;
  std::vector<float> est_buf;
  std::vector<float> lb_buf;
  /// Stage-2 lower bounds of the multi-bit refine (bits_per_dim > 1 under
  /// kErrorBound). Separate from lb_buf because the re-rank walk re-checks
  /// BOTH bounds against the live threshold.
  std::vector<float> mlb_buf;
  std::vector<Neighbor> estimate_pool;
  QuantizedQuery query;
  /// When non-null, SearchWithScratch adds per-stage spans (probe ordering,
  /// scan, re-rank; preprocess when it rotates the query itself) into this
  /// trace. Null (the default) costs one branch per stage and no clock
  /// reads. The engine points this at the sampled query's QueryTrace for
  /// the duration of each (query x shard) cell.
  obs::QueryTrace* trace = nullptr;
};

/// A compacted replacement for one list, built by PlanListCompaction without
/// disturbing the index and installed by CommitListCompaction. The embedded
/// generation ties the plan to the exact list state it was derived from:
/// commit refuses a plan whose list has since been mutated.
struct IvfCompactionPlan {
  std::uint32_t list_id = 0;
  std::uint64_t list_generation = 0;
  std::vector<std::uint32_t> ids;  // live ids, in list order
  RabitqCodeStore codes;           // their codes, re-packed
};

/// IVF index over RaBitQ codes. Keeps the raw vectors (chunked storage) for
/// exact re-ranking, mirroring the paper's in-memory setting.
///
/// Thread-safety contract: every const method is a pure read -- any number
/// of threads may search/plan concurrently. The mutators (Build, Load, Add,
/// Delete, Update, CommitListCompaction, Compact) require exclusive access:
/// no concurrent reader or writer. PlanListCompaction is const and may
/// overlap searches, but NOT writers (the plan would go stale -- commit
/// detects this and fails closed). SearchEngine layers the shared/exclusive
/// locking that upholds this contract for serving workloads.
class IvfRabitqIndex {
 public:
  /// Builds the index: KMeans into num_lists buckets, then RaBitQ-encode
  /// every vector against its bucket centroid.
  Status Build(const Matrix& data, const IvfConfig& ivf_config,
               const RabitqConfig& rabitq_config);

  /// Builds the index from an externally supplied clustering: `centroids`
  /// (L x dim) and `assignments` (data.rows() entries, each < L). Build is
  /// exactly RunKMeans + this. ShardedIndex uses it to give every shard the
  /// SAME centroid set (one global clustering), which is what makes the
  /// scatter-gather merge bit-identical to a single-shard index.
  /// Under kCosine, `data` rows must already be unit-normalized (Build and
  /// ShardedIndex normalize before clustering; zero rows must have been
  /// rejected by then) -- this method ingests them as-is.
  Status BuildFromClustering(const Matrix& data, Matrix centroids,
                             const std::uint32_t* assignments,
                             const RabitqConfig& rabitq_config,
                             Metric metric = Metric::kL2);

  /// Total ids ever assigned (including tombstoned ones); ids are dense in
  /// [0, size()).
  std::size_t size() const { return data_.rows(); }
  /// Number of non-deleted vectors.
  std::size_t live_size() const { return live_count_; }
  /// Tombstoned list entries not yet dropped by compaction. Counts stale
  /// Update entries too, so it can exceed size() - live_size().
  std::size_t num_tombstones() const { return num_tombstones_; }
  std::size_t dim() const { return data_.dim(); }
  std::size_t num_lists() const { return centroids_.rows(); }
  /// Distance space the index was built for; persisted by snapshot v3
  /// (v1/v2 snapshots load as kL2).
  Metric metric() const { return metric_; }
  const RabitqEncoder& encoder() const { return encoder_; }
  const Matrix& centroids() const { return centroids_; }
  const std::vector<std::uint32_t>& list_ids(std::size_t l) const {
    return lists_[l].ids;
  }
  const RabitqCodeStore& list_codes(std::size_t l) const {
    return lists_[l].codes;
  }
  /// Tombstoned entries in list `l`.
  std::size_t list_tombstones(std::size_t l) const {
    return lists_[l].num_dead;
  }
  /// True iff `id` was deleted (or never assigned).
  bool IsDeleted(std::uint32_t id) const {
    return id >= id_live_.size() || id_live_[id] == 0;
  }
  /// List holding the current entry of a LIVE id (stale for deleted ids).
  std::uint32_t list_of(std::uint32_t id) const { return id_to_list_[id]; }
  /// Raw vector of a live id (the re-ranking source of truth).
  const float* vector(std::uint32_t id) const { return data_.Row(id); }

  /// P^T c per list, precomputed at build time so the per-cluster query
  /// preparation is a subtract-and-scale (see PrepareQueryFromRotated).
  const Matrix& rotated_centroids() const { return rotated_centroids_; }

  /// Writes the probe order of `query` into `*out`: (centroid key, list id)
  /// for every list, the key being the squared centroid distance under kL2
  /// and the negated centroid inner product under kInnerProduct/kCosine.
  /// Only the first min(nprobe, num_lists) entries are sorted ascending
  /// (nth_element + sort of the prefix, O(L + nprobe log nprobe)); entries
  /// past the prefix are in unspecified order, and nprobe = num_lists()
  /// sorts them all. Because (key, list id) pairs are totally ordered, the
  /// sorted prefix is exactly the full sort's prefix -- the search path
  /// (SearchWithScratch, and through it ShardedIndex and the engine) stays
  /// bit-identical while skipping the full sort.
  void ProbeOrderInto(const float* query, std::size_t nprobe,
                      std::vector<std::pair<float, std::uint32_t>>* out) const;

  /// Unified request API: k-NN over the LIVE vectors (tombstones skipped
  /// during candidate selection), restricted to request.options.filter when
  /// one is set -- the filter is folded into the scan's survivors mask, so
  /// excluded codes never reach re-ranking. The result is a pure function
  /// of (index, request): per probed list the query rounding is seeded by
  /// Rng(MixSeed(base, list_id)) where base is options.seed (0 when unset).
  ///
  /// Thread-safety: the query path is const and touches no mutable index
  /// state, so any number of threads may search one index concurrently.
  /// Searches must not overlap the mutators (see the class contract above);
  /// SearchEngine provides that coordination for serving workloads.
  SearchResponse Search(const SearchRequest& request) const;

  /// Search core with caller-owned workspace (the hot path of the serving
  /// engine). `rotated_query` optionally passes a precomputed P^T q
  /// (encoder().total_bits() floats, e.g. one row of the engine's batched
  /// rotation -- bit-identical to RotateQueryOnce by the Rotator contract);
  /// nullptr computes it into the scratch. Under kCosine the query is
  /// normalized WHERE it is rotated: when `rotated_query` is null this
  /// method normalizes (rejecting a zero-norm query); when non-null the
  /// caller guarantees `query` is already unit-normalized and `rotated_query`
  /// is its rotation -- never both, since re-normalizing an already
  /// normalized vector is not a bitwise no-op. `seed` is the per-query base of
  /// the per-list rounding seeds -- the explicit parameter wins over
  /// params.seed, which this level ignores (the layers above resolve it).
  /// params.filter, when active, is pushed into candidate selection; its
  /// ids are this index's LOCAL ids unless the filter carries an id map
  /// (see IdFilter::WithIdMap). `scratch` must be non-null and exclusive
  /// to this call for its duration.
  Status SearchWithScratch(const float* query, const float* rotated_query,
                           const SearchOptions& params, std::uint64_t seed,
                           IvfSearchScratch* scratch,
                           std::vector<Neighbor>* out,
                           IvfSearchStats* stats = nullptr) const;

  /// Appends one vector to the index after Build: encodes it against its
  /// nearest centroid and extends that list's packed layout by one slot --
  /// amortized O(1). The new vector's id (== previous size()) is returned
  /// through `id_out` when non-null.
  Status Add(const float* vec, std::uint32_t* id_out = nullptr);

  /// Tombstones `id`: it stops appearing in search results immediately; its
  /// code entry is reclaimed by the next compaction of its list. The raw
  /// row stays allocated (ids are append-only), so memory is bounded by ids
  /// ever assigned, not by the live count. NotFound if the id was never
  /// assigned or already deleted.
  Status Delete(std::uint32_t id);

  /// Replaces the vector of a live `id` in place: overwrites the raw row,
  /// tombstones the old list entry, and re-encodes into the list of the new
  /// nearest centroid. The id is stable across the update.
  Status Update(std::uint32_t id, const float* vec);

  /// Lists whose tombstone ratio (num_dead / entries) reaches `min_ratio`
  /// and whose num_dead is at least `min_dead` (compacting a 3-entry list
  /// over one tombstone is churn, not progress).
  std::vector<std::uint32_t> ListsNeedingCompaction(
      float min_ratio, std::size_t min_dead = 1) const;

  /// Builds a compacted replacement for one list into `*plan`. Const and
  /// allocation-contained: may run concurrently with searches (it only
  /// reads), but must not overlap writers.
  Status PlanListCompaction(std::uint32_t list_id,
                            IvfCompactionPlan* plan) const;

  /// Installs a plan: swaps in the compacted ids/codes, clears the list's
  /// tombstones and refreshes the id->position mapping. O(live entries of
  /// the list) -- the only step that needs exclusive access, so readers are
  /// blocked no longer than an epoch bump. FailedPrecondition if the list
  /// changed after the plan was built.
  Status CommitListCompaction(IvfCompactionPlan&& plan);

  /// Blocking convenience: plan+commit every list selected by
  /// ListsNeedingCompaction(min_ratio, min_dead). Requires exclusive access.
  Status Compact(float min_ratio = 0.0f, std::size_t min_dead = 1);

  /// Serializes the full index -- config (metric, bits_per_dim), raw
  /// vectors, centroids, per-list ids, tombstones and code stores -- in
  /// snapshot format v6 ("RBQIVF06", see ivf_serialize.cpp), with a CRC-32
  /// footer over everything after the header. The write is crash-safe: the
  /// blob goes to `<path>.tmp` and is renamed over `path` only after a
  /// clean close. The rotation matrix itself is NOT stored: rotators are
  /// deterministic in (dim, bits, kind, seed), so Load re-derives it -- the
  /// same trick the paper uses to never materialize the codebook.
  Status Save(const std::string& path) const;

  /// Restores an index written by Save into `*this`: the current v6 format
  /// or a legacy v1-v5 one (ivf_serialize.cpp lists what each lacks; v1-v3
  /// load with bits_per_dim = 1, v1/v2 as Metric::kL2). A checksum mismatch
  /// fails closed with an IoError, and the metric, rotator kind and
  /// bits_per_dim are validated BEFORE the O(B^3) rotator rebuild so
  /// corrupt values fail closed cheaply.
  Status Load(const std::string& path);

 private:
  struct List {
    std::vector<std::uint32_t> ids;
    RabitqCodeStore codes;
    // Positional tombstones, parallel to `ids`: dead[p] == 1 marks a
    // deleted id or the stale pre-Update entry of a re-encoded id.
    std::vector<std::uint8_t> dead;
    std::size_t num_dead = 0;
    // Bumped on every mutation; pins compaction plans to a list state.
    std::uint64_t generation = 0;
  };

  /// Appends (id, code-of-vec) to the list of vec's nearest centroid and
  /// refreshes the id mapping; shared tail of Add and Update.
  Status AppendToNearestList(std::uint32_t id, const float* vec);

  /// Writes the snapshot blob itself (header, checksummed body, footer) to
  /// `path`; Save wraps this with the tmp-write + atomic-rename dance.
  Status SaveBody(const std::string& path) const;

  ChunkedVectorStore data_;   // raw vectors (for re-ranking)
  Metric metric_ = Metric::kL2;
  Matrix centroids_;          // num_lists x dim
  Matrix rotated_centroids_;  // num_lists x total_bits: P^T c per list
  RabitqEncoder encoder_;
  std::vector<List> lists_;

  // Per-id lifecycle state. id_to_list_/id_to_pos_ locate the CURRENT
  // (non-dead) entry of a live id; stale for deleted ids (guarded by
  // id_live_).
  std::vector<std::uint8_t> id_live_;
  std::vector<std::uint32_t> id_to_list_;
  std::vector<std::uint32_t> id_to_pos_;
  std::size_t live_count_ = 0;
  std::size_t num_tombstones_ = 0;
};

}  // namespace rabitq

#endif  // RABITQ_INDEX_IVF_H_
