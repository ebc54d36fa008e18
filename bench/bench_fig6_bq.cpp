// Reproduces Figure 6: average relative error of estimated distances as a
// function of B_q (bits per quantized query entry), on SIFT-like (D=128)
// and GIST-like (D=960) data.
//
// Expected shape: the error converges by B_q ~ 4 (Theorem 3.3's
// Theta(log log D) in practice); B_q = 1 -- both sides binary, the
// binary-hashing regime -- is clearly worse.

#include <cstdio>

#include "bench_common.h"
#include "core/estimator.h"
#include "eval/metrics.h"
#include "util/prng.h"
#include "util/timer.h"

using namespace rabitq;

int main() {
  std::printf("=== Fig. 6: avg relative error vs B_q ===\n\n");
  const double scale = bench::EnvScale();
  std::vector<SyntheticSpec> specs = {
      SiftLikeSpec(static_cast<std::size_t>(10000 * scale), 20),
      GistLikeSpec(static_cast<std::size_t>(4000 * scale), 10)};

  TablePrinter table({"dataset", "B_q", "avg rel err", "max rel err"});
  for (const SyntheticSpec& spec : specs) {
    Matrix base, queries;
    bench::CheckOk(GenerateDataset(spec, &base, &queries), spec.name.c_str());
    const std::size_t dim = spec.dim;
    const auto centroid = bench::DatasetCentroid(base);

    RabitqEncoder encoder;
    bench::CheckOk(encoder.Init(dim, RabitqConfig{}), "init");
    RabitqCodeStore store(encoder.total_bits());
    store.Reserve(base.rows());
    for (std::size_t i = 0; i < base.rows(); ++i) {
      bench::CheckOk(encoder.EncodeAppend(base.Row(i), centroid.data(), &store),
                     "encode");
    }

    // Exact distances once.
    Matrix truth(queries.rows(), base.rows());
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      for (std::size_t i = 0; i < base.rows(); ++i) {
        truth.At(q, i) = L2SqrDistance(queries.Row(q), base.Row(i), dim);
      }
    }

    const double floor = 0.01 * bench::MeanOfMatrix(truth);
    for (int bq = 1; bq <= 8; ++bq) {
      Rng rng(42);
      RelativeErrorAccumulator err;
      for (std::size_t q = 0; q < queries.rows(); ++q) {
        QuantizedQuery qq;
        bench::CheckOk(PrepareQuery(encoder, queries.Row(q), centroid.data(),
                                    &rng, &qq, bq),
                       "prepare");
        for (std::size_t i = 0; i < store.size(); ++i) {
          err.Add(EstimateDistance(qq, store, i, 0.0f).dist_sq,
                  truth.At(q, i), floor);
        }
      }
      const RelativeErrorStats stats = err.Stats();
      table.AddRow({spec.name + " (D=" + std::to_string(dim) + ")",
                    std::to_string(bq),
                    TablePrinter::FormatDouble(100 * stats.average, 2) + "%",
                    TablePrinter::FormatDouble(100 * stats.maximum, 1) + "%"});
    }
  }
  table.Print();
  std::printf("\nShape check: error converges at B_q ~ 4 on both datasets; "
              "B_q = 1 is much worse.\n");
  return 0;
}
