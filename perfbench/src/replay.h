// The traced run's per-layer replays. Every layer is timed from the
// benchmark's own code, around calls into that layer's public functions,
// on the same index bytes the server holds (its sharded snapshot, loaded
// in-process).

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "server/client.h"

namespace perfbench {

struct LayerTimes {
  // Per query, microseconds.
  std::vector<double> client_search;  // Client::Search, one at a time
  std::vector<double> engine_submit;  // SubmitAsync(...).get()
  std::vector<double> index_search;   // ShardedIndex::SearchWithScratch
  std::vector<double> rotate;         // RotateQueryOnce
  std::vector<double> probe_order;    // ProbeOrderInto, every shard
  std::vector<double> prepare;        // PrepareQueryFromRotated, probe order
  std::vector<double> fastscan;       // FastScanAccumulateBlock
  std::vector<double> scan;           // EstimateBlockFusedPruned
  std::vector<double> refine;         // multi-bit refine kernels
  std::vector<double> merge;          // MergeShardResults
  std::vector<double> remainder;      // search minus every replayed child
  std::vector<double> batch_per_query;  // SearchBatch at the frame size / m
  std::vector<double> insert, update, del;  // SearchEngine writes

  // Work counts summed over the replayed queries.
  std::size_t lists_prepared = 0;
  std::size_t blocks_scanned = 0;
  std::size_t codes_scanned = 0;
  std::size_t codes_refined_replay = 0;
  // SearchResponse.stats summed over the replayed queries.
  std::size_t lists_probed = 0;
  std::size_t codes_estimated = 0;
  std::size_t codes_refined = 0;
  std::size_t candidates_reranked = 0;

  double kmeans_s = 0.0;
  double queue_wait_p50_us = 0.0;  // the engine's own sampled histogram
  std::size_t queue_wait_samples = 0;
};

/// Loads the sharded snapshot at `snapshot_dir` twice -- once under an
/// in-process SearchEngine configured as rabitq_server configures its
/// engines, once as a bare index -- and replays the first `count` queries
/// one at a time. Per query, back to back so all see the same host
/// conditions: Client::Search against the live server, SubmitAsync on the
/// engine, the index search, then each stage below it. Afterwards: the
/// engine's SearchBatch at the frame size and its writes, and KMeans over
/// `base` at the workload's list count.
rabitq::Status ReplayLayers(const std::string& snapshot_dir,
                            rabitq::server::Client* client,
                            const char* collection, const Workload& w,
                            std::uint64_t seed, const rabitq::Matrix& base,
                            const rabitq::Matrix& queries,
                            const Mixture& mixture, std::size_t count,
                            SpanLog* log, LayerTimes* out);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
