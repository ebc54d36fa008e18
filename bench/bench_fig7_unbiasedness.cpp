// Reproduces Figure 7 (and Appendix F.2's Figure 11): unbiasedness of the
// distance estimator. Collects (true, estimated) squared-distance pairs on
// GIST-like data, normalizes by the maximum true squared distance, and fits
// a linear regression, as the paper does with 10^7 pairs.
//
// Expected: RaBitQ's fit has slope ~1, intercept ~0 (unbiased); OPQ's is
// clearly off; the ablated estimator <obar,q> (not divided by <obar,o>) is
// biased as well (Fig. 11's ~0.8 slope in inner-product space).

#include <cstdio>

#include "bench_common.h"
#include "core/estimator.h"
#include "eval/metrics.h"
#include "quant/opq.h"
#include "util/prng.h"

using namespace rabitq;

int main() {
  const SyntheticSpec spec = GistLikeSpec(
      static_cast<std::size_t>(8000 * bench::EnvScale()), 10);
  Matrix base, queries;
  bench::CheckOk(GenerateDataset(spec, &base, &queries), "dataset");
  const std::size_t dim = spec.dim;
  std::printf("=== Fig. 7 / Fig. 11: unbiasedness study, %s N=%zu, %zu "
              "queries (%zu pairs) ===\n\n",
              spec.name.c_str(), base.rows(), queries.rows(),
              base.rows() * queries.rows());

  const auto centroid = bench::DatasetCentroid(base);

  // RaBitQ codes.
  RabitqEncoder encoder;
  bench::CheckOk(encoder.Init(dim, RabitqConfig{}), "init");
  RabitqCodeStore store(encoder.total_bits());
  for (std::size_t i = 0; i < base.rows(); ++i) {
    bench::CheckOk(encoder.EncodeAppend(base.Row(i), centroid.data(), &store),
                   "encode");
  }

  // OPQ codes (2D bits, the paper's default).
  OpqConfig opq_config;
  opq_config.pq.num_segments = dim / 2;
  opq_config.pq.bits = 4;
  opq_config.pq.kmeans_iterations = 8;
  opq_config.opq_iterations = 3;
  opq_config.max_training_points = 6000;
  OptimizedProductQuantizer opq;
  bench::CheckOk(opq.Train(base, opq_config), "opq train");
  std::vector<std::uint8_t> opq_codes;
  opq.EncodeBatch(base, &opq_codes);

  std::vector<double> truth_norm, rabitq_est, rabitq_biased_est, opq_est;
  Rng rng(9);
  AlignedVector<float> luts;
  // First pass: true distances and the normalizer.
  double max_truth = 0.0;
  Matrix truth(queries.rows(), base.rows());
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    for (std::size_t i = 0; i < base.rows(); ++i) {
      truth.At(q, i) = L2SqrDistance(queries.Row(q), base.Row(i), dim);
      max_truth = std::max<double>(max_truth, truth.At(q, i));
    }
  }
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    QuantizedQuery qq;
    bench::CheckOk(
        PrepareQuery(encoder, queries.Row(q), centroid.data(), &rng, &qq),
        "prepare");
    opq.ComputeLookupTables(queries.Row(q), &luts);
    for (std::size_t i = 0; i < base.rows(); ++i) {
      truth_norm.push_back(truth.At(q, i) / max_truth);
      rabitq_est.push_back(
          EstimateDistance(qq, store, i, 0.0f).dist_sq / max_truth);
      rabitq_biased_est.push_back(
          EstimateDistanceBiased(qq, store, i).dist_sq / max_truth);
      opq_est.push_back(
          opq.EstimateWithLuts(opq_codes.data() + i * opq.num_segments(),
                               luts.data()) /
          max_truth);
    }
  }

  TablePrinter table({"estimator", "slope", "intercept", "R^2",
                      "paper expectation"});
  const LinearFit rabitq_fit = FitLinear(truth_norm, rabitq_est);
  const LinearFit biased_fit = FitLinear(truth_norm, rabitq_biased_est);
  const LinearFit opq_fit = FitLinear(truth_norm, opq_est);
  table.AddRow({"RaBitQ <obar,q>/<obar,o>",
                TablePrinter::FormatDouble(rabitq_fit.slope, 4),
                TablePrinter::FormatDouble(rabitq_fit.intercept, 4),
                TablePrinter::FormatDouble(rabitq_fit.r2, 4),
                "slope 1, intercept 0 (unbiased)"});
  table.AddRow({"RaBitQ ablated <obar,q>",
                TablePrinter::FormatDouble(biased_fit.slope, 4),
                TablePrinter::FormatDouble(biased_fit.intercept, 4),
                TablePrinter::FormatDouble(biased_fit.r2, 4),
                "biased (Fig. 11)"});
  table.AddRow({"OPQx4fs", TablePrinter::FormatDouble(opq_fit.slope, 4),
                TablePrinter::FormatDouble(opq_fit.intercept, 4),
                TablePrinter::FormatDouble(opq_fit.r2, 4),
                "visibly biased"});
  table.Print();
  return 0;
}
