// Side-by-side accuracy comparison of every quantizer in the library on one
// dataset: RaBitQ (D bits) vs PQ/OPQ (2D bits, the paper's default) vs
// LSQ-lite. Prints the paper's headline: RaBitQ wins with half the bits.
//
//   $ ./build/examples/compare_quantizers

#include <cmath>
#include <cstdio>

#include "core/estimator.h"
#include "core/query.h"
#include "core/rabitq.h"
#include "index/ivf.h"
#include "eval/datasets.h"
#include "eval/metrics.h"
#include "linalg/vector_ops.h"
#include "quant/lsq.h"
#include "quant/opq.h"
#include "quant/pq.h"
#include "util/timer.h"

namespace {

using namespace rabitq;

bool Check(const Status& status) {
  if (!status.ok()) std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return status.ok();
}

}  // namespace

int main() {
  const SyntheticSpec spec = SiftLikeSpec(20000, 50);
  Matrix base, queries;
  if (!Check(GenerateDataset(spec, &base, &queries))) return 1;
  const std::size_t dim = spec.dim;
  std::printf("dataset: %s  N=%zu  D=%zu  queries=%zu\n\n", spec.name.c_str(),
              base.rows(), dim, queries.rows());

  TablePrinter table(
      {"method", "code bits", "train+encode (s)", "avg rel err", "max rel err"});

  // ---- RaBitQ: D bits, normalized against IVF cluster centroids as the
  // paper prescribes (Sections 3.1.1 and 4). ---------------------------------
  {
    WallTimer timer;
    IvfConfig ivf;
    ivf.num_lists = base.rows() / 256;
    IvfRabitqIndex index;
    if (!Check(index.Build(base, ivf, RabitqConfig{}))) return 1;
    const double index_seconds = timer.ElapsedSeconds();
    Rng rng(1);
    RelativeErrorAccumulator err;
    std::vector<float> rotated_query(index.encoder().total_bits());
    std::vector<float> estimates;
    std::vector<std::pair<float, std::uint32_t>> order;
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      RotateQueryOnce(index.encoder(), queries.Row(q), rotated_query.data());
      index.ProbeOrderInto(queries.Row(q), index.num_lists(), &order);
      for (const auto& [dist_sq, l] : order) {
        const auto& ids = index.list_ids(l);
        if (ids.empty()) continue;
        QuantizedQuery qq;
        if (!Check(PrepareQueryFromRotated(
                index.encoder(), rotated_query.data(),
                index.rotated_centroids().Row(l),
                std::sqrt(std::max(0.0f, dist_sq)), &rng, &qq))) {
          return 1;
        }
        estimates.resize(ids.size());
        EstimateAll(qq, index.list_codes(l), 0.0f, estimates.data(), nullptr);
        for (std::size_t i = 0; i < ids.size(); ++i) {
          err.Add(estimates[i],
                  L2SqrDistance(queries.Row(q), base.Row(ids[i]), dim));
        }
      }
    }
    const RelativeErrorStats stats = err.Stats();
    table.AddRow({"RaBitQ", std::to_string(index.encoder().total_bits()),
                  TablePrinter::FormatDouble(index_seconds, 1),
                  TablePrinter::FormatDouble(100 * stats.average, 2) + "%",
                  TablePrinter::FormatDouble(100 * stats.maximum, 1) + "%"});
  }

  // ---- PQ / OPQ at 2D bits (M = D/2, 4-bit codes). --------------------------
  auto run_pq_like = [&](const char* name, bool use_opq) {
    WallTimer timer;
    PqConfig pq_config;
    pq_config.num_segments = dim / 2;
    pq_config.bits = 4;
    ProductQuantizer pq;
    OptimizedProductQuantizer opq;
    std::vector<std::uint8_t> codes;
    if (use_opq) {
      OpqConfig opq_config;
      opq_config.pq = pq_config;
      opq_config.opq_iterations = 6;
      if (!Check(opq.Train(base, opq_config))) return false;
      opq.EncodeBatch(base, &codes);
    } else {
      if (!Check(pq.Train(base, pq_config))) return false;
      pq.EncodeBatch(base, &codes);
    }
    const double index_seconds = timer.ElapsedSeconds();
    RelativeErrorAccumulator err;
    AlignedVector<float> luts;
    AlignedVector<std::uint8_t> qluts;
    const std::size_t m = pq_config.num_segments;
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      if (use_opq) {
        opq.ComputeLookupTables(queries.Row(q), &luts);
      } else {
        pq.ComputeLookupTables(queries.Row(q), &luts);
      }
      float scale, bias;
      QuantizeLutsToU8(luts.data(), m, &qluts, &scale, &bias);
      for (std::size_t i = 0; i < base.rows(); ++i) {
        std::uint32_t acc = 0;
        for (std::size_t seg = 0; seg < m; ++seg) {
          acc += qluts[seg * 16 + codes[i * m + seg]];
        }
        err.Add(scale * static_cast<float>(acc) + bias,
                L2SqrDistance(queries.Row(q), base.Row(i), dim));
      }
    }
    const RelativeErrorStats stats = err.Stats();
    table.AddRow({name, std::to_string(m * 4),
                  TablePrinter::FormatDouble(index_seconds, 1),
                  TablePrinter::FormatDouble(100 * stats.average, 2) + "%",
                  TablePrinter::FormatDouble(100 * stats.maximum, 1) + "%"});
    return true;
  };
  if (!run_pq_like("PQx4fs", false)) return 1;
  if (!run_pq_like("OPQx4fs", true)) return 1;

  // ---- LSQ-lite (additive; encoding dominates, so use a subsample). --------
  {
    WallTimer timer;
    LsqConfig lsq_config;
    lsq_config.num_codebooks = dim / 4;  // D bits
    lsq_config.train_iterations = 2;
    AdditiveQuantizer aq;
    if (!Check(aq.Train(base, lsq_config))) return 1;
    const std::size_t sample = 5000;
    std::vector<std::uint8_t> codes(sample * aq.num_codebooks());
    std::vector<float> norms(sample);
    for (std::size_t i = 0; i < sample; ++i) {
      aq.Encode(base.Row(i), codes.data() + i * aq.num_codebooks(), &norms[i]);
    }
    const double index_seconds = timer.ElapsedSeconds();
    RelativeErrorAccumulator err;
    AlignedVector<float> luts;
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      aq.ComputeLookupTables(queries.Row(q), &luts);
      const float query_sq = SquaredNorm(queries.Row(q), dim);
      for (std::size_t i = 0; i < sample; ++i) {
        err.Add(aq.EstimateWithLuts(codes.data() + i * aq.num_codebooks(),
                                    luts.data(), norms[i], query_sq),
                L2SqrDistance(queries.Row(q), base.Row(i), dim));
      }
    }
    const RelativeErrorStats stats = err.Stats();
    table.AddRow(
        {"LSQ-lite (5k sample)", std::to_string(aq.code_bits()),
         TablePrinter::FormatDouble(index_seconds, 1),
         TablePrinter::FormatDouble(100 * stats.average, 2) + "%",
         TablePrinter::FormatDouble(100 * stats.maximum, 1) + "%"});
  }

  table.Print();
  std::printf("\nRaBitQ uses HALF the bits of PQ/OPQ above; it beats PQ "
              "decisively and matches OPQ\non this locally-Gaussian synthetic "
              "set (on the paper's real datasets, and on the\nheavy-tailed "
              "MSong-like generator, it wins outright -- see bench/).\n");
  return 0;
}
