// Reproduces Figure 3: time-accuracy trade-off of distance estimation per
// vector. For each of the six datasets it prints one row per (method, code
// length): average relative error, maximum relative error, and nanoseconds
// per estimated vector (query preprocessing included, as in the paper).
//
// Methods: RaBitQ-single (bitwise), RaBitQ-batch (fast scan), PQx8-single
// (LUT in RAM), PQx4fs-batch, OPQx8-single, OPQx4fs-batch, LSQx4fs-batch.
// Code lengths: RaBitQ sweeps zero-padding {B0, 2*B0}; PQ/OPQ sweep
// M in {~D/4, ~D/2} (4-bit) and {~D/8, ~D/4} (8-bit); LSQ uses M ~ D/4.
//
// Expected shapes (paper Section 5.2.1):
//   * RaBitQ at B0 ~ D bits beats PQ/OPQ at 2D bits on both error columns;
//   * RaBitQ-single is ~3x faster than PQx8-single at comparable accuracy;
//   * on MSong-like data PQx4fs/OPQx4fs collapse (avg err > 50%).

#include <cmath>
#include <cstdio>
#include <functional>

#include "bench_common.h"
#include "core/estimator.h"
#include "eval/metrics.h"
#include "index/ivf.h"
#include "quant/lsq.h"
#include "quant/opq.h"
#include "quant/pq.h"
#include "util/prng.h"
#include "util/timer.h"

using namespace rabitq;

namespace {

struct MethodRow {
  std::string method;
  std::size_t code_bits;
  double ns_per_vector;
  double avg_err;
  double max_err;
};

// Exact squared distances query x base, in base order.
Matrix ExactDistances(const Matrix& base, const Matrix& queries) {
  Matrix truth(queries.rows(), base.rows());
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    for (std::size_t i = 0; i < base.rows(); ++i) {
      truth.At(q, i) = L2SqrDistance(queries.Row(q), base.Row(i), base.cols());
    }
  }
  return truth;
}

MethodRow ScoreEstimates(const std::string& method, std::size_t code_bits,
                         double seconds, const Matrix& truth,
                         const Matrix& estimates) {
  RelativeErrorAccumulator err;
  const double floor = 0.01 * bench::MeanOfMatrix(truth);
  for (std::size_t q = 0; q < truth.rows(); ++q) {
    for (std::size_t i = 0; i < truth.cols(); ++i) {
      err.Add(estimates.At(q, i), truth.At(q, i), floor);
    }
  }
  const RelativeErrorStats stats = err.Stats();
  return MethodRow{method, code_bits,
                   seconds * 1e9 / (truth.rows() * truth.cols()),
                   stats.average, stats.maximum};
}

// ---- RaBitQ (per-cluster normalization via a small IVF, probe order). -----
void RunRabitq(const Matrix& base, const Matrix& queries, const Matrix& truth,
               std::size_t total_bits, std::vector<MethodRow>* rows) {
  IvfConfig ivf;
  ivf.num_lists = std::max<std::size_t>(8, base.rows() / 256);
  RabitqConfig config;
  config.total_bits = total_bits;
  IvfRabitqIndex index;
  bench::CheckOk(index.Build(base, ivf, config), "RaBitQ IVF build");

  Matrix estimates(queries.rows(), base.rows());
  std::vector<float> rotated_query(index.encoder().total_bits());
  for (const bool batch : {false, true}) {
    Rng rng(77);
    WallTimer timer;
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      const auto order = index.ProbeOrderWithDistances(queries.Row(q));
      RotateQueryOnce(index.encoder(), queries.Row(q), rotated_query.data());
      for (const auto& [centroid_dist_sq, l] : order) {
        const auto& ids = index.list_ids(l);
        if (ids.empty()) continue;
        QuantizedQuery qq;
        bench::CheckOk(
            PrepareQueryFromRotated(index.encoder(), rotated_query.data(),
                                    index.rotated_centroids().Row(l),
                                    std::sqrt(std::max(0.0f, centroid_dist_sq)),
                                    &rng, &qq),
            "prepare query");
        const RabitqCodeStore& codes = index.list_codes(l);
        if (batch) {
          std::vector<float> buffer(codes.size());
          EstimateAll(qq, codes, 0.0f, buffer.data(), nullptr);
          for (std::size_t i = 0; i < ids.size(); ++i) {
            estimates.At(q, ids[i]) = buffer[i];
          }
        } else {
          for (std::size_t i = 0; i < ids.size(); ++i) {
            estimates.At(q, ids[i]) =
                EstimateDistance(qq, codes, i, 0.0f).dist_sq;
          }
        }
      }
    }
    const double seconds = timer.ElapsedSeconds();
    rows->push_back(ScoreEstimates(
        batch ? "RaBitQ-batch" : "RaBitQ-single",
        index.encoder().total_bits(), seconds, truth, estimates));
  }
}

// ---- PQ / OPQ (global codebooks; x8 LUT-in-RAM or x4fs fast scan). --------
void RunPqLike(const Matrix& base, const Matrix& queries, const Matrix& truth,
               bool use_opq, int bits, std::size_t num_segments,
               std::vector<MethodRow>* rows) {
  PqConfig pq_config;
  pq_config.num_segments = num_segments;
  pq_config.bits = bits;
  pq_config.kmeans_iterations = 10;
  ProductQuantizer pq;
  OptimizedProductQuantizer opq;
  std::vector<std::uint8_t> codes;
  if (use_opq) {
    OpqConfig opq_config;
    opq_config.pq = pq_config;
    opq_config.opq_iterations = 3;
    opq_config.max_training_points = 8000;
    bench::CheckOk(opq.Train(base, opq_config), "OPQ train");
    opq.EncodeBatch(base, &codes);
  } else {
    bench::CheckOk(pq.Train(base, pq_config), "PQ train");
    pq.EncodeBatch(base, &codes);
  }

  const std::string name = std::string(use_opq ? "OPQ" : "PQ") +
                           (bits == 4 ? "x4fs-batch" : "x8-single");
  Matrix estimates(queries.rows(), base.rows());
  AlignedVector<float> luts;
  WallTimer timer;
  if (bits == 4) {
    FastScanCodes packed;
    PackFastScanCodes(codes.data(), base.rows(), num_segments, &packed);
    timer.Restart();  // packing is index-phase work
    AlignedVector<std::uint8_t> qluts;
    std::uint32_t acc[kFastScanBlockSize];
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      if (use_opq) {
        opq.ComputeLookupTables(queries.Row(q), &luts);
      } else {
        pq.ComputeLookupTables(queries.Row(q), &luts);
      }
      float scale, bias;
      QuantizeLutsToU8(luts.data(), num_segments, &qluts, &scale, &bias);
      for (std::size_t block = 0; block < packed.num_blocks; ++block) {
        FastScanAccumulateBlock(packed.BlockPtr(block), num_segments,
                                qluts.data(), acc);
        const std::size_t begin = block * kFastScanBlockSize;
        const std::size_t end =
            std::min(begin + kFastScanBlockSize, base.rows());
        for (std::size_t i = begin; i < end; ++i) {
          estimates.At(q, i) =
              scale * static_cast<float>(acc[i - begin]) + bias;
        }
      }
    }
  } else {
    const ProductQuantizer& quantizer = use_opq ? opq.pq() : pq;
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      if (use_opq) {
        opq.ComputeLookupTables(queries.Row(q), &luts);
      } else {
        pq.ComputeLookupTables(queries.Row(q), &luts);
      }
      for (std::size_t i = 0; i < base.rows(); ++i) {
        estimates.At(q, i) = quantizer.EstimateWithLuts(
            codes.data() + i * num_segments, luts.data());
      }
    }
  }
  const double seconds = timer.ElapsedSeconds();
  rows->push_back(ScoreEstimates(name, num_segments * bits, seconds, truth,
                                 estimates));
}

// ---- LSQ-lite x4fs. --------------------------------------------------------
void RunLsq(const Matrix& base, const Matrix& queries, const Matrix& truth,
            std::size_t num_codebooks, std::vector<MethodRow>* rows) {
  LsqConfig config;
  config.num_codebooks = num_codebooks;
  config.train_iterations = 2;
  config.icm_iterations = 1;
  config.max_training_points = 4000;
  AdditiveQuantizer aq;
  bench::CheckOk(aq.Train(base, config), "LSQ train");
  std::vector<std::uint8_t> codes;
  std::vector<float> norms;
  aq.EncodeBatch(base, &codes, &norms);
  FastScanCodes packed;
  PackFastScanCodes(codes.data(), base.rows(), num_codebooks, &packed);

  Matrix estimates(queries.rows(), base.rows());
  AlignedVector<float> luts;
  AlignedVector<std::uint8_t> qluts;
  std::uint32_t acc[kFastScanBlockSize];
  WallTimer timer;
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    aq.ComputeLookupTables(queries.Row(q), &luts);
    float scale, bias;
    QuantizeLutsToU8(luts.data(), num_codebooks, &qluts, &scale, &bias);
    const float query_sq = SquaredNorm(queries.Row(q), base.cols());
    for (std::size_t block = 0; block < packed.num_blocks; ++block) {
      FastScanAccumulateBlock(packed.BlockPtr(block), num_codebooks,
                              qluts.data(), acc);
      const std::size_t begin = block * kFastScanBlockSize;
      const std::size_t end = std::min(begin + kFastScanBlockSize, base.rows());
      for (std::size_t i = begin; i < end; ++i) {
        estimates.At(q, i) = scale * static_cast<float>(acc[i - begin]) +
                             bias + query_sq + norms[i];
      }
    }
  }
  const double seconds = timer.ElapsedSeconds();
  rows->push_back(ScoreEstimates("LSQx4fs-batch", num_codebooks * 4, seconds,
                                 truth, estimates));
}

}  // namespace

int main() {
  std::printf("=== Fig. 3: time-accuracy trade-off of distance estimation "
              "===\n");
  for (const SyntheticSpec& spec : bench::BenchSuite(10)) {
    Matrix base, queries;
    bench::CheckOk(GenerateDataset(spec, &base, &queries), spec.name.c_str());
    const Matrix truth = ExactDistances(base, queries);
    const std::size_t dim = spec.dim;

    std::vector<MethodRow> rows;
    const std::size_t b0 = DefaultPaddedDim(dim);
    RunRabitq(base, queries, truth, b0, &rows);
    RunRabitq(base, queries, truth, 2 * b0, &rows);
    for (const std::size_t m :
         {bench::LargestDivisorAtMost(dim, dim / 4),
          bench::LargestDivisorAtMost(dim, dim / 2)}) {
      RunPqLike(base, queries, truth, /*use_opq=*/false, /*bits=*/4, m, &rows);
      RunPqLike(base, queries, truth, /*use_opq=*/true, /*bits=*/4, m, &rows);
    }
    for (const std::size_t m :
         {bench::LargestDivisorAtMost(dim, dim / 8),
          bench::LargestDivisorAtMost(dim, dim / 4)}) {
      RunPqLike(base, queries, truth, /*use_opq=*/false, /*bits=*/8, m, &rows);
      RunPqLike(base, queries, truth, /*use_opq=*/true, /*bits=*/8, m, &rows);
    }
    RunLsq(base, queries, truth, bench::LargestDivisorAtMost(dim, dim / 4),
           &rows);

    std::printf("\n--- %s (N=%zu, D=%zu, %zu queries) ---\n",
                spec.name.c_str(), base.rows(), dim, queries.rows());
    TablePrinter table({"method", "code bits", "ns/vector", "avg rel err",
                        "max rel err"});
    for (const MethodRow& row : rows) {
      table.AddRow({row.method, std::to_string(row.code_bits),
                    TablePrinter::FormatDouble(row.ns_per_vector, 1),
                    TablePrinter::FormatDouble(100 * row.avg_err, 2) + "%",
                    TablePrinter::FormatDouble(100 * row.max_err, 1) + "%"});
    }
    table.Print();
  }
  return 0;
}
