#include "replay.h"

#include <bit>
#include <cmath>
#include <limits>

#include "cluster/kmeans.h"
#include "core/estimator.h"
#include "core/query.h"
#include "engine/search_engine.h"
#include "index/sharded.h"
#include "quant/fastscan.h"

namespace perfbench {

namespace {

/// Times one call into a layer and records its span; returns microseconds.
template <typename Fn>
double Timed(SpanLog* log, const char* name, std::uint32_t qid, Fn&& fn) {
  const std::int64_t start = log->Now();
  fn();
  const std::int64_t end = log->Now();
  log->Add(name, start, end, qid);
  return static_cast<double>(end - start) * 1e-3;
}

/// One probed list of the replayed query: its code store, and the
/// quantized query prepared for it.
struct Probe {
  const rabitq::RabitqCodeStore* codes;
  const rabitq::QuantizedQuery* query;
};

}  // namespace

rabitq::Status ReplayLayers(const std::string& snapshot_dir,
                            rabitq::server::Client* client,
                            const char* collection, const Workload& w,
                            std::uint64_t seed, const rabitq::Matrix& base,
                            const rabitq::Matrix& queries,
                            const Mixture& mixture, std::size_t count,
                            SpanLog* log, LayerTimes* out) {
  using rabitq::kFastScanBlockSize;
  rabitq::ShardedIndex index;
  RABITQ_RETURN_IF_ERROR(index.Load(snapshot_dir));
  rabitq::ShardedIndex engine_index;
  RABITQ_RETURN_IF_ERROR(engine_index.Load(snapshot_dir));
  rabitq::SearchEngine engine(std::move(engine_index), rabitq::EngineConfig{});

  const rabitq::RabitqEncoder& encoder = index.encoder();
  const std::size_t shards = index.num_shards();
  const std::size_t nprobe = std::min(w.nprobe, index.num_lists());
  const rabitq::Metric metric = index.metric();
  const float eps0 = encoder.config().epsilon0;
  const bool multi = encoder.config().bits_per_dim > 1;

  rabitq::ShardedSearchScratch scratch;
  rabitq::ShardedSearchScratch merge_scratch;
  rabitq::IvfSearchScratch shard_scratch;
  std::vector<rabitq::Neighbor> result;
  std::vector<rabitq::Neighbor> merged;
  rabitq::IvfSearchStats stats;
  rabitq::IvfSearchStats merge_stats;
  std::vector<float> rotated(encoder.total_bits());
  std::vector<std::vector<std::pair<float, std::uint32_t>>> orders(shards);
  std::vector<rabitq::QuantizedQuery> prepared(shards * nprobe);
  std::vector<Probe> probes;
  probes.reserve(shards * nprobe);
  std::vector<std::uint32_t> sums;
  std::vector<std::uint32_t> masks;
  float est[kFastScanBlockSize];
  float lb[kFastScanBlockSize];
  float mlb[kFastScanBlockSize];
  std::uint32_t msums[kFastScanBlockSize];
  std::vector<std::vector<rabitq::Neighbor>> shard_results(shards);
  std::vector<rabitq::IvfSearchStats> shard_stats(shards);

  // Warm caches and scratch capacity before timing.
  for (std::size_t q = 0; q < std::min<std::size_t>(count, 50); ++q) {
    const rabitq::SearchOptions options = SeededOptions(w, seed, q);
    client->Search(collection, queries.Row(q), w.dim, options);
    engine.SubmitAsync({queries.Row(q), options}).get();
    index.SearchWithScratch(queries.Row(q), nullptr, options, *options.seed,
                            &scratch, &result, &stats);
  }
  engine.ResetStats();

  for (std::size_t q = 0; q < count; ++q) {
    const auto qid = static_cast<std::uint32_t>(q);
    const float* query = queries.Row(q);
    const rabitq::SearchOptions options = SeededOptions(w, seed, q);
    const std::uint64_t query_seed = *options.seed;

    out->client_search.push_back(Timed(log, "client.search", qid, [&] {
      client->Search(collection, query, w.dim, options);
    }));
    out->engine_submit.push_back(Timed(log, "engine.submit_async", qid, [&] {
      engine.SubmitAsync({query, options}).get();
    }));
    const double search_us = Timed(log, "index.search", qid, [&] {
      index.SearchWithScratch(query, nullptr, options, query_seed, &scratch,
                              &result, &stats);
    });
    out->index_search.push_back(search_us);
    out->lists_probed += stats.lists_probed;
    out->codes_estimated += stats.codes_estimated;
    out->codes_refined += stats.codes_refined;
    out->candidates_reranked += stats.candidates_reranked;

    const double rotate_us = Timed(log, "core.rotate", qid, [&] {
      rabitq::RotateQueryOnce(encoder, query, rotated.data());
    });
    const double probe_us = Timed(log, "index.probe_order", qid, [&] {
      for (std::size_t s = 0; s < shards; ++s) {
        index.shard(s).ProbeOrderInto(query, nprobe, &orders[s]);
      }
    });

    // Per-list query preparation over the probe order, exactly as the scan
    // loop does it: per-list rounding seed, q_dist from the L2 probe key.
    probes.clear();
    const double prepare_us = Timed(log, "core.query_prepare", qid, [&] {
      std::size_t slot = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const rabitq::IvfRabitqIndex& shard = index.shard(s);
        const auto& order = orders[s];
        for (std::size_t p = 0; p < nprobe && p < order.size(); ++p) {
          const std::uint32_t list = order[p].second;
          if (shard.list_ids(list).empty()) continue;
          rabitq::Rng list_rng(rabitq::MixSeed(query_seed, list));
          const float q_dist = std::sqrt(std::max(0.0f, order[p].first));
          rabitq::PrepareQueryFromRotated(
              encoder, rotated.data(), shard.rotated_centroids().Row(list),
              q_dist, &list_rng, &prepared[slot], 0, metric, 0.0f);
          probes.push_back(Probe{&shard.list_codes(list), &prepared[slot]});
          ++slot;
        }
      }
    });
    out->lists_prepared += probes.size();

    std::size_t blocks = 0;
    for (const Probe& probe : probes) {
      if (probe.codes->finalized() && probe.query->has_exact_luts) {
        blocks += probe.codes->packed().num_blocks;
      }
    }
    sums.resize(blocks * kFastScanBlockSize);
    masks.assign(blocks, 0);

    const double fastscan_us = Timed(log, "quant.fastscan", qid, [&] {
      std::size_t b = 0;
      for (const Probe& probe : probes) {
        if (!probe.codes->finalized() || !probe.query->has_exact_luts) continue;
        const rabitq::FastScanCodes& packed = probe.codes->packed();
        for (std::size_t block = 0; block < packed.num_blocks; ++block, ++b) {
          rabitq::FastScanAccumulateBlock(
              packed.BlockPtr(block), packed.num_segments,
              probe.query->luts.data(), sums.data() + b * kFastScanBlockSize);
        }
      }
    });

    // Prune against the query's final k-th distance: the threshold the
    // real scan converges to.
    const float threshold = result.size() == w.k
                                ? result.back().first
                                : std::numeric_limits<float>::infinity();
    std::size_t codes = 0;
    const double scan_us = Timed(log, "core.scan", qid, [&] {
      std::size_t b = 0;
      for (const Probe& probe : probes) {
        if (!probe.codes->finalized() || !probe.query->has_exact_luts) continue;
        const std::size_t num_blocks = probe.codes->packed().num_blocks;
        for (std::size_t block = 0; block < num_blocks; ++block, ++b) {
          masks[b] = rabitq::EstimateBlockFusedPruned(
              *probe.query, *probe.codes, block,
              sums.data() + b * kFastScanBlockSize, eps0, threshold, nullptr,
              est, lb);
        }
        codes += probe.codes->size();
      }
    });
    out->blocks_scanned += blocks;
    out->codes_scanned += codes;

    double refine_us = 0.0;
    if (multi) {
      std::size_t refined = 0;
      refine_us = Timed(log, "core.refine", qid, [&] {
        std::size_t b = 0;
        for (const Probe& probe : probes) {
          if (!probe.codes->finalized() || !probe.query->has_exact_luts) {
            continue;
          }
          const std::size_t num_blocks = probe.codes->packed().num_blocks;
          for (std::size_t block = 0; block < num_blocks; ++block, ++b) {
            if (masks[b] == 0) continue;
            rabitq::AccumulateMultiBlockSums(
                *probe.query, *probe.codes, block,
                sums.data() + b * kFastScanBlockSize, msums);
            rabitq::EstimateBlockMultiPruned(*probe.query, *probe.codes, block,
                                             msums, eps0, threshold, masks[b],
                                             est, mlb);
            refined += static_cast<std::size_t>(std::popcount(masks[b]));
          }
        }
      });
      out->codes_refined_replay += refined;
    }

    for (std::size_t s = 0; s < shards; ++s) {
      index.SearchShard(s, query, rotated.data(), options, query_seed,
                        &shard_scratch, &shard_results[s], &shard_stats[s]);
    }
    const double merge_us = Timed(log, "index.merge", qid, [&] {
      index.MergeShardResults(query, options, shard_results.data(),
                              shard_stats.data(), &merge_scratch, &merged,
                              &merge_stats);
    });

    out->rotate.push_back(rotate_us);
    out->probe_order.push_back(probe_us);
    out->prepare.push_back(prepare_us);
    out->fastscan.push_back(fastscan_us);
    out->scan.push_back(scan_us);
    out->refine.push_back(refine_us);
    out->merge.push_back(merge_us);
    out->remainder.push_back(search_us - rotate_us - probe_us - prepare_us -
                             fastscan_us - scan_us - refine_us - merge_us);
  }

  // KMeans at the workload's list count, configured as the server's build.
  {
    rabitq::KMeansConfig kmeans;
    kmeans.num_clusters = std::min(w.lists, base.rows());
    rabitq::KMeansResult clustering;
    const Clock::time_point t0 = Clock::now();
    RABITQ_RETURN_IF_ERROR(rabitq::RunKMeans(base, kmeans, &clustering));
    out->kmeans_s = MicrosBetween(t0, Clock::now()) * 1e-6;
  }

  const rabitq::obs::MetricsSnapshot snapshot = engine.SnapshotMetrics();
  if (const rabitq::obs::MetricValue* wait =
          snapshot.Find("rabitq_stage_queue_wait_us")) {
    out->queue_wait_p50_us = wait->hist.Quantile(0.5);
    out->queue_wait_samples = wait->hist.count;
  }

  const std::size_t m = std::max<std::size_t>(1, w.frame);
  std::vector<rabitq::SearchRequest> requests(m);
  std::vector<rabitq::SearchResponse> responses;
  for (std::size_t first = 0; first + m <= count; first += m) {
    for (std::size_t i = 0; i < m; ++i) {
      requests[i] = {queries.Row(first + i), SeededOptions(w, seed, first + i)};
    }
    out->batch_per_query.push_back(
        Timed(log, "engine.search_batch", static_cast<std::uint32_t>(first),
              [&] { engine.SearchBatch(requests.data(), m, &responses); }) /
        static_cast<double>(m));
  }

  // Inserts of hot-component vectors, then updates and deletes of them.
  constexpr std::size_t kWrites = 200;
  rabitq::Rng rng(rabitq::MixSeed(seed, 0x3417E5ULL));
  std::vector<float> vec(w.dim);
  std::vector<std::uint32_t> ids(kWrites);
  for (std::size_t i = 0; i < kWrites; ++i) {
    mixture.Sample(rng.UniformInt(w.hot_components), &rng, vec.data());
    out->insert.push_back(Timed(log, "engine.insert", 0, [&] {
      engine.Insert(vec.data(), &ids[i]);
    }));
  }
  for (std::size_t i = 0; i < kWrites; ++i) {
    mixture.Sample(rng.UniformInt(w.hot_components), &rng, vec.data());
    out->update.push_back(Timed(log, "engine.update", 0, [&] {
      engine.Update(ids[i], vec.data());
    }));
  }
  for (std::size_t i = 0; i < kWrites; ++i) {
    out->del.push_back(
        Timed(log, "engine.delete", 0, [&] { engine.Delete(ids[i]); }));
  }
  return rabitq::Status::Ok();
}

}  // namespace perfbench
