// Checks of the benchmark's own correctness machinery: the gate accepts an
// exhaustive index search and rejects corrupted neighbor lists, the recall
// floor fails the gate, and the percentile rule keeps ten samples beyond
// the reported percentile. Exit code 0 = every check passed.

#include <cstdio>
#include <vector>

#include "common.h"
#include "gate.h"
#include "index/sharded.h"

namespace {

int failures = 0;

void Expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  using namespace perfbench;
  constexpr std::size_t kN = 3000;
  constexpr std::size_t kDim = 32;
  constexpr std::size_t kK = 10;
  const Mixture mixture(20, kDim, 1.0, 7);
  rabitq::Rng rng(11);
  const rabitq::Matrix base = mixture.Draw(kN, &rng, nullptr);
  const rabitq::Matrix queries = mixture.Draw(8, &rng, nullptr);
  const LiveSet live(base);

  rabitq::ShardedConfig config;
  config.num_shards = 2;
  config.ivf.num_lists = 16;
  rabitq::ShardedIndex index;
  if (!index.Build(base, config).ok()) {
    std::fprintf(stderr, "FAILED: index build\n");
    return 1;
  }

  GateResult clean;
  std::vector<rabitq::Neighbor> sample;
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    rabitq::SearchRequest request;
    request.query = queries.Row(q);
    request.options.k = kK;
    request.options.nprobe = index.num_lists();
    request.options.epsilon0_override = 50.0f;
    request.options.seed = q;
    const rabitq::SearchResponse r = index.Search(request);
    Expect(r.status.ok(), "exhaustive search ok");
    GateCheck(r.neighbors, live.ExactTopK(queries.Row(q), kK), q, &clean);
    if (q == 0) sample = r.neighbors;
  }
  Expect(clean.checked == queries.rows(), "every probe query checked");
  Expect(clean.ok(), "gate passes an exhaustive search");

  const std::vector<rabitq::Neighbor> truth = live.ExactTopK(queries.Row(0), kK);
  Expect(CompareTopK(sample, truth).empty(), "sample equals the exact top-k");

  // Corruptions the gate must catch: a wrong id, a swapped pair, a
  // perturbed distance, a dropped neighbor.
  std::vector<std::vector<rabitq::Neighbor>> corrupted(4, truth);
  corrupted[0][3].second = static_cast<std::uint32_t>(kN + 5);
  std::swap(corrupted[1][0], corrupted[1][1]);
  corrupted[2][kK - 1].first *= 1.0001f;
  corrupted[3].pop_back();
  for (const auto& bad : corrupted) {
    GateResult gate;
    GateCheck(bad, truth, 0, &gate);
    Expect(!gate.ok(), "gate fails on a corrupted neighbor list");
    Expect(!gate.first_mismatch.empty(), "mismatch is described");
  }

  // A live set that missed an acknowledged write: the index holds a
  // vector the model has no entry for, or vice versa.
  LiveSet stale(base);
  stale.Erase(truth[0].second);
  GateResult missed;
  GateCheck(sample, stale.ExactTopK(queries.Row(0), kK), 0, &missed);
  Expect(!missed.ok(), "gate fails when the live set misses a delete");

  GateResult low_recall = clean;
  low_recall.recall = 0.80;
  low_recall.recall_floor = 0.85;
  Expect(!low_recall.ok(), "recall below the floor fails the gate");
  Expect(RecallAtK(corrupted[0], truth, kK) == 0.9, "recall counts id hits");

  std::vector<double> samples(999);
  for (std::size_t i = 0; i < samples.size(); ++i) samples[i] = static_cast<double>(i);
  Expect(SupportedPercentile(samples, 0.99).q < 0.99,
         "p99 needs ten samples beyond it");
  samples.push_back(999.0);
  const Percentile p99 = SupportedPercentile(samples, 0.99);
  Expect(p99.q == 0.99 && p99.value == 989.0, "p99 of 1000 samples is rank 990");

  if (failures == 0) std::printf("gate_test OK\n");
  return failures == 0 ? 0 : 1;
}
