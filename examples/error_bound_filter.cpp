// Demonstrates the paper's Section-4 idea in isolation: using the
// theoretical error bound as a *filter*. Given a candidate set and a
// distance threshold (the current k-th best), RaBitQ's lower bound decides
// -- without touching the raw vectors -- which candidates can be discarded
// safely. Prints pruning power and the (near-zero) false-discard rate.
//
//   $ ./build/examples/error_bound_filter

#include <algorithm>
#include <cstdio>

#include "core/estimator.h"
#include "core/query.h"
#include "core/rabitq.h"
#include "eval/datasets.h"
#include "index/brute_force.h"
#include "linalg/vector_ops.h"
#include "util/prng.h"

int main() {
  using namespace rabitq;

  const SyntheticSpec spec = SiftLikeSpec(30000, 50);
  Matrix base, queries;
  if (Status s = GenerateDataset(spec, &base, &queries); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  const std::size_t dim = spec.dim;
  const std::size_t k = 10;

  std::vector<float> centroid(dim, 0.0f);
  for (std::size_t i = 0; i < base.rows(); ++i) {
    Axpy(1.0f / base.rows(), base.Row(i), centroid.data(), dim);
  }

  RabitqEncoder encoder;
  if (Status s = encoder.Init(dim, RabitqConfig{}); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  RabitqCodeStore store(encoder.total_bits());
  for (std::size_t i = 0; i < base.rows(); ++i) {
    if (Status s = encoder.EncodeAppend(base.Row(i), centroid.data(), &store);
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }

  Rng rng(3);
  std::size_t total_pruned = 0, total_candidates = 0, false_discards = 0;
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    // The "current k-th best": exact distance of the true k-th neighbor
    // (the hardest threshold the filter will ever face).
    const std::vector<Neighbor> truth =
        BruteForceSearch(base, queries.Row(q), k);
    const float threshold = truth.back().first;

    QuantizedQuery qq;
    if (Status s =
            PrepareQuery(encoder, queries.Row(q), centroid.data(), &rng, &qq);
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::vector<float> est(store.size()), lb(store.size());
    EstimateAll(qq, store, encoder.config().epsilon0, est.data(), lb.data());
    for (std::size_t i = 0; i < store.size(); ++i) {
      ++total_candidates;
      if (lb[i] > threshold) {
        ++total_pruned;
        // Was this a true top-k neighbor? (False discard = recall loss.)
        for (const auto& [d, id] : truth) {
          if (id == i) {
            ++false_discards;
            break;
          }
        }
      }
    }
  }
  std::printf("candidates examined : %zu\n", total_candidates);
  std::printf("pruned by bound     : %zu (%.1f%%)\n", total_pruned,
              100.0 * total_pruned / total_candidates);
  std::printf("true top-%zu discarded: %zu (%.5f%% of candidates)\n", k,
              false_discards, 100.0 * false_discards / total_candidates);
  std::printf("\nOnly the unpruned ~%.0f%% ever need a raw-vector distance "
              "computation;\nthe guarantee made that decision safe without "
              "tuning any parameter.\n",
              100.0 - 100.0 * total_pruned / total_candidates);
  return 0;
}
