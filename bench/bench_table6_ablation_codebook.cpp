// Reproduces Table 6 (Appendix F.1): ablation of the codebook construction.
// Keeping the estimator fixed, swap the random rotation for
//   (a) no rotation at all -- the deterministic codebook C of Eq. 3, and
//   (b) the fast Hadamard rotation (our extension; sanity row).
// Also prints the Appendix E per-bit entropy of the codes (normalization
// uniformity check: the paper reports > 99.9% of the maximum).
//
// Expected: the randomized codebooks (dense, FHT) clearly beat the
// deterministic one on both error columns, and their code-bit entropy is
// ~100% while the deterministic codebook's is lower.

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "core/estimator.h"
#include "eval/metrics.h"
#include "util/prng.h"

using namespace rabitq;

namespace {

double CodeEntropyFraction(const RabitqCodeStore& store) {
  const std::size_t b = store.total_bits();
  std::vector<std::size_t> ones(b, 0);
  std::vector<std::uint64_t> bits(store.words_per_code());
  for (std::size_t i = 0; i < store.size(); ++i) {
    store.UnpackPlane(i, 0, bits.data());
    for (std::size_t j = 0; j < b; ++j) {
      if (GetBit(bits.data(), j)) ++ones[j];
    }
  }
  double entropy = 0.0;
  for (std::size_t j = 0; j < b; ++j) {
    const double p = static_cast<double>(ones[j]) / store.size();
    if (p > 0.0 && p < 1.0) {
      entropy += -(p * std::log2(p) + (1 - p) * std::log2(1 - p));
    }
  }
  return entropy / b;
}

}  // namespace

int main() {
  // Two datasets: the coordinate-isotropic GIST-like set (where a
  // deterministic codebook happens to be benign -- our low-rank generator
  // spreads energy evenly over coordinates) and the axis-skewed MSong-like
  // set, the adversarial case Section 3.1.2 motivates: without the random
  // rotation the codebook favors some vectors and fails others.
  std::vector<SyntheticSpec> specs = {
      GistLikeSpec(static_cast<std::size_t>(8000 * bench::EnvScale()), 10),
      MsongLikeSpec(static_cast<std::size_t>(8000 * bench::EnvScale()), 10)};
  std::printf("=== Table 6: codebook-construction ablation ===\n\n");
  TablePrinter table({"dataset", "codebook", "avg rel err", "max rel err",
                      "bit entropy (%)"});
  for (const SyntheticSpec& spec : specs) {
  Matrix base, queries;
  bench::CheckOk(GenerateDataset(spec, &base, &queries), "dataset");
  const std::size_t dim = spec.dim;
  const auto centroid = bench::DatasetCentroid(base);

  Matrix truth(queries.rows(), base.rows());
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    for (std::size_t i = 0; i < base.rows(); ++i) {
      truth.At(q, i) = L2SqrDistance(queries.Row(q), base.Row(i), dim);
    }
  }

  struct Row {
    const char* label;
    RotatorKind kind;
  };
  for (const Row& row : {Row{"randomized (paper)", RotatorKind::kDense},
                         Row{"deterministic C (no rotation)",
                             RotatorKind::kIdentity},
                         Row{"randomized FHT (extension)", RotatorKind::kFht}}) {
    RabitqConfig config;
    config.rotator = row.kind;
    RabitqEncoder encoder;
    bench::CheckOk(encoder.Init(dim, config), "init");
    RabitqCodeStore store(encoder.total_bits());
    for (std::size_t i = 0; i < base.rows(); ++i) {
      bench::CheckOk(encoder.EncodeAppend(base.Row(i), centroid.data(), &store),
                     "encode");
    }
    Rng rng(4);
    RelativeErrorAccumulator err;
    const double floor = 0.01 * bench::MeanOfMatrix(truth);
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      QuantizedQuery qq;
      bench::CheckOk(
          PrepareQuery(encoder, queries.Row(q), centroid.data(), &rng, &qq),
          "prepare");
      for (std::size_t i = 0; i < store.size(); ++i) {
        err.Add(EstimateDistance(qq, store, i, 0.0f).dist_sq,
                truth.At(q, i), floor);
      }
    }
    const RelativeErrorStats stats = err.Stats();
    table.AddRow({spec.name, row.label,
                  TablePrinter::FormatDouble(100 * stats.average, 3) + "%",
                  TablePrinter::FormatDouble(100 * stats.maximum, 2) + "%",
                  TablePrinter::FormatDouble(100 * CodeEntropyFraction(store),
                                             2)});
  }
  }
  table.Print();
  std::printf("\nPaper Table 6 (GIST, 1M): randomized 1.675%% / 13.04%%; "
              "learned-codebook ablation 3.049%% / 34.38%%.\n"
              "Appendix E: bit entropy > 99.9%% with proper normalization + "
              "rotation.\n");
  return 0;
}
