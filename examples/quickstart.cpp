// Quickstart: quantize a small vector collection with RaBitQ and estimate
// distances with the theoretical error bound.
//
//   $ ./build/examples/quickstart
//
// Walks through the full public API surface:
//   1. RabitqEncoder::Init            -- sample the random rotation
//   2. RabitqEncoder::EncodeAppend    -- D-dimensional float -> D-bit code
//   3. PrepareQuery                   -- rotate + 4-bit-quantize the query
//   4. EstimateDistance               -- unbiased estimate + error bound

#include <cstdio>
#include <vector>

#include "core/estimator.h"
#include "core/query.h"
#include "core/rabitq.h"
#include "linalg/vector_ops.h"
#include "util/prng.h"

int main() {
  using namespace rabitq;

  constexpr std::size_t kDim = 128;
  constexpr std::size_t kNumVectors = 1000;

  // --- Make a toy dataset (any float vectors work). -----------------------
  Rng rng(42);
  Matrix data(kNumVectors, kDim);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.data()[i] = static_cast<float>(rng.Gaussian());
  }
  // RaBitQ normalizes vectors against a centroid; here the dataset mean.
  std::vector<float> centroid(kDim, 0.0f);
  for (std::size_t i = 0; i < kNumVectors; ++i) {
    Axpy(1.0f / kNumVectors, data.Row(i), centroid.data(), kDim);
  }

  // --- Index phase: encode every vector into a 128-bit code. --------------
  RabitqConfig config;   // defaults: B = D rounded up to 64, eps0 = 1.9, Bq = 4
  RabitqEncoder encoder;
  Status status = encoder.Init(kDim, config);
  if (!status.ok()) {
    std::fprintf(stderr, "encoder init failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  RabitqCodeStore store(encoder.total_bits());
  store.Reserve(kNumVectors);
  for (std::size_t i = 0; i < kNumVectors; ++i) {
    status = encoder.EncodeAppend(data.Row(i), centroid.data(), &store);
    if (!status.ok()) {
      std::fprintf(stderr, "encode failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  std::printf("Encoded %zu vectors of dim %zu into %zu-bit codes "
              "(%.1fx compression vs float32)\n",
              store.size(), kDim, encoder.total_bits(),
              32.0 * kDim / encoder.total_bits());

  // --- Query phase. --------------------------------------------------------
  std::vector<float> query(kDim);
  for (auto& v : query) v = static_cast<float>(rng.Gaussian());

  QuantizedQuery qq;
  status = PrepareQuery(encoder, query.data(), centroid.data(), &rng, &qq);
  if (!status.ok()) {
    std::fprintf(stderr, "query prep failed: %s\n", status.ToString().c_str());
    return 1;
  }

  std::printf("\n%6s  %12s  %12s  %12s  %9s\n", "vector", "true dist^2",
              "estimated", "lower bound", "rel.err");
  double total_rel_err = 0.0;
  std::size_t bound_violations = 0;
  for (std::size_t i = 0; i < store.size(); ++i) {
    const DistanceEstimate est =
        EstimateDistance(qq, store, i, config.epsilon0);
    const float truth = L2SqrDistance(query.data(), data.Row(i), kDim);
    total_rel_err += std::abs(est.dist_sq - truth) / truth;
    if (est.lower_bound_sq > truth) ++bound_violations;
    if (i < 8) {
      std::printf("%6zu  %12.2f  %12.2f  %12.2f  %8.2f%%\n", i, truth,
                  est.dist_sq, est.lower_bound_sq,
                  100.0 * std::abs(est.dist_sq - truth) / truth);
    }
  }
  std::printf("...\naverage relative error over %zu vectors: %.2f%%\n",
              store.size(), 100.0 * total_rel_err / store.size());
  std::printf("lower-bound violations at eps0=%.1f: %zu / %zu "
              "(theory: ~2.9%% one-sided tail for generic pairs)\n",
              config.epsilon0, bound_violations, store.size());
  return 0;
}
