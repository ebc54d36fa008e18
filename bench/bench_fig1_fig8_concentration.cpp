// Reproduces Figure 1 (right panel) and Figure 8 / Lemma B.3: the
// concentration of <o-bar, o> around E[<o-bar,o>] ~ 0.8 and the centered,
// symmetric distribution of <o-bar, e1>, measured over many independently
// sampled rotations for one fixed (o, q) pair in D = 128.
//
// Paper reference points:
//   * E[<o-bar,o>] = sqrt(D/pi) * 2 Gamma(D/2) / ((D-1) Gamma((D-1)/2)),
//     numerically in [0.798, 0.800] for D in [1e2, 1e6];
//   * <o-bar,e1> has mean 0; deviations beyond Omega(1/sqrt(D)) are rare;
//   * <o-bar,e1> / sqrt(1 - <o-bar,o>^2) follows the projection density
//     p_{D-1} (Lemma B.1).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "core/rabitq.h"
#include "eval/metrics.h"
#include "linalg/vector_ops.h"
#include "util/prng.h"

using namespace rabitq;

namespace {

// E[<o-bar,o>] via the closed form (log-Gamma for stability).
double TheoreticalOO(std::size_t d) {
  const double log_ratio = std::lgamma(d / 2.0) - std::lgamma((d - 1) / 2.0);
  return std::sqrt(d / M_PI) * 2.0 / (d - 1.0) * std::exp(log_ratio);
}

}  // namespace

int main() {
  const std::size_t kDim = 128;
  const int kTrials = static_cast<int>(2000 * bench::EnvScale());

  std::printf("=== Fig. 1 (right) + Fig. 8: concentration study, D=%zu, "
              "%d independent rotations ===\n\n",
              kDim, kTrials);

  // Fixed pair (o, q), unit norm.
  Rng data_rng(7);
  std::vector<float> o(kDim), q(kDim);
  for (auto& v : o) v = static_cast<float>(data_rng.Gaussian());
  for (auto& v : q) v = static_cast<float>(data_rng.Gaussian());
  NormalizeInPlace(o.data(), kDim);
  NormalizeInPlace(q.data(), kDim);
  // e1 = normalized component of q orthogonal to o.
  std::vector<float> e1(q);
  Axpy(-Dot(q.data(), o.data(), kDim), o.data(), e1.data(), kDim);
  NormalizeInPlace(e1.data(), kDim);

  double sum_oo = 0.0, sum_oo_sq = 0.0;
  double sum_e1 = 0.0, sum_e1_sq = 0.0;
  double max_abs_e1 = 0.0;
  // Histogram of the normalized variable x1 = <obar,e1>/sqrt(1-<obar,o>^2),
  // which Lemma B.3 says follows p_{D-1} (std ~ 1/sqrt(D-1)).
  const int kBins = 11;
  const double kBinHalfWidth = 4.0;  // in units of 1/sqrt(D-1)
  std::vector<int> histogram(kBins, 0);

  std::vector<float> o_bar(kDim);
  for (int t = 0; t < kTrials; ++t) {
    RabitqConfig config;
    config.seed = 1000003ULL * t + 17;
    RabitqEncoder encoder;
    bench::CheckOk(encoder.Init(kDim, config), "encoder init");
    RabitqCodeStore store(encoder.total_bits());
    bench::CheckOk(encoder.EncodeAppend(o.data(), nullptr, &store), "encode");
    std::vector<std::uint64_t> bits(store.words_per_code());
    store.UnpackPlane(0, 0, bits.data());
    encoder.ReconstructQuantizedUnit(bits.data(), o_bar.data());

    const double oo = Dot(o_bar.data(), o.data(), kDim);
    const double oe1 = Dot(o_bar.data(), e1.data(), kDim);
    sum_oo += oo;
    sum_oo_sq += oo * oo;
    sum_e1 += oe1;
    sum_e1_sq += oe1 * oe1;
    max_abs_e1 = std::max(max_abs_e1, std::fabs(oe1));

    const double x1 = oe1 / std::sqrt(std::max(1e-12, 1.0 - oo * oo));
    const double z = x1 * std::sqrt(static_cast<double>(kDim - 1));
    const int bin = static_cast<int>((z + kBinHalfWidth) / (2 * kBinHalfWidth) *
                                     kBins);
    if (bin >= 0 && bin < kBins) ++histogram[bin];
  }

  const double mean_oo = sum_oo / kTrials;
  const double std_oo = std::sqrt(sum_oo_sq / kTrials - mean_oo * mean_oo);
  const double mean_e1 = sum_e1 / kTrials;
  const double std_e1 = std::sqrt(sum_e1_sq / kTrials - mean_e1 * mean_e1);

  TablePrinter table({"quantity", "measured", "paper/theory"});
  table.AddRow({"E[<obar,o>]", TablePrinter::FormatDouble(mean_oo, 4),
                TablePrinter::FormatDouble(TheoreticalOO(kDim), 4) +
                    " (\"~0.8\")"});
  table.AddRow({"std[<obar,o>]", TablePrinter::FormatDouble(std_oo, 4),
                "O(1/sqrt(D)) = " +
                    TablePrinter::FormatDouble(1.0 / std::sqrt(kDim), 4)});
  table.AddRow({"E[<obar,e1>]", TablePrinter::FormatDouble(mean_e1, 4),
                "0 (exactly)"});
  table.AddRow({"std[<obar,e1>]", TablePrinter::FormatDouble(std_e1, 4),
                "~sqrt(1-0.64)/sqrt(D) = " +
                    TablePrinter::FormatDouble(0.6 / std::sqrt(kDim), 4)});
  table.AddRow({"max|<obar,e1>|", TablePrinter::FormatDouble(max_abs_e1, 4),
                "few x 1/sqrt(D)"});
  table.Print();

  std::printf("\nFig. 8 histogram of z = <obar,e1>/sqrt(1-<obar,o>^2) * "
              "sqrt(D-1)  (expected: symmetric, std ~ 1):\n");
  const int peak = *std::max_element(histogram.begin(), histogram.end());
  for (int b = 0; b < kBins; ++b) {
    const double lo = -kBinHalfWidth + b * 2 * kBinHalfWidth / kBins;
    const double hi = lo + 2 * kBinHalfWidth / kBins;
    const int bar = peak > 0 ? histogram[b] * 40 / peak : 0;
    std::printf("  [%5.2f, %5.2f) %6d  %s\n", lo, hi, histogram[b],
                std::string(bar, '#').c_str());
  }

  // E[<obar,o>] across dimensions (paper: stays in [0.798, 0.800]).
  std::printf("\nClosed-form E[<obar,o>] across D (paper: ~0.8 for all):\n");
  for (const std::size_t d : {128u, 256u, 1024u, 4096u, 65536u}) {
    std::printf("  D = %6zu: %.4f\n", d, TheoreticalOO(d));
  }
  return 0;
}
